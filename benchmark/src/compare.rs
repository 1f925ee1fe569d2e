//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! with each side's median and quartiles and a verdict, A being the
//! parent and B the change.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::read_samples;
use crate::spec::spec;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// A spread wider than the bound hides any change of that size.
    Unresolved,
}

/// The verdict on one metric.  B is better when it wins at least nine
/// tenths of the sample pairs (ties count for neither) and the medians
/// differ by more than A's interquartile distance.  Otherwise, when either
/// side's spread exceeds `bound` (a share of the median), the result is
/// unresolved unless every B sample is better than every A sample; else B
/// is worse when its median is worse than A's by more than `bound`.
///
/// A metric with one sample on each side is deterministic for the seed
/// (the paper-fidelity errors), so any rise is worse: its `bound` only
/// covers the spread over seeds, which a same-seed comparison never sees.
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let bound = if a.samples.len() == 1 && b.samples.len() == 1 {
        0.0
    } else {
        bound
    };
    // Positive when `y` is better than `x`.
    let gain = |x: f64, y: f64| if higher_is_better { y - x } else { x - y };
    let pairs = a.samples.len().min(b.samples.len());
    let wins = a
        .samples
        .iter()
        .zip(&b.samples)
        .filter(|(&x, &y)| gain(x, y) > 0.0)
        .count();
    let improvement = gain(a.median, b.median);
    if pairs > 0 && wins * 10 >= pairs * 9 && improvement > a.q3 - a.q1 {
        return Verdict::Better;
    }
    let all = |pred: &dyn Fn(f64, f64) -> bool| {
        a.samples
            .iter()
            .all(|&x| b.samples.iter().all(|&y| pred(x, y)))
    };
    let worse_share = if a.median == 0.0 {
        if improvement < 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        -improvement / a.median.abs()
    };
    if a.relative_iqr() > bound || b.relative_iqr() > bound {
        if all(&|x, y| gain(x, y) > 0.0) {
            return Verdict::WithinBound;
        }
        if worse_share > bound && all(&|x, y| gain(x, y) < 0.0) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if worse_share > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table of two results documents, and whether any row is
/// a regression.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (a, b) = (read_samples(a)?, read_samples(b)?);
    let mut out = format!(
        "{:<14} {:<18} {:>9} {:>32} {:>32}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n"
    );
    let mut any_worse = false;
    let side = |s: &Summary| {
        format!(
            "{:.5} [{:.5}, {:.5}] {}",
            s.median,
            s.q1,
            s.q3,
            s.samples.len()
        )
    };
    for ((workload, name), sa) in &a {
        let Some(metric) = spec().end_to_end.iter().find(|m| &m.name == name) else {
            continue;
        };
        let Some(sb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let bound = metric.bound.expect("end-to-end metrics carry a bound");
        let v = verdict(sa, sb, metric.higher_is_better, bound);
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{workload:<14} {name:<18} {:>9} {:>32} {:>32}  {v:?}",
            metric.unit,
            side(sa),
            side(sb)
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    const A: [f64; 10] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0];

    #[test]
    fn clear_speed_up_is_better() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&s(&A), &s(&b), false, 0.1), Verdict::Better);
        // The same samples read as throughput are a regression.
        assert_eq!(verdict(&s(&A), &s(&b), true, 0.1), Verdict::Worse);
    }

    #[test]
    fn small_slow_down_is_within_bound() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&s(&A), &s(&b), false, 0.1), Verdict::WithinBound);
        assert_eq!(verdict(&s(&A), &s(&A), false, 0.1), Verdict::WithinBound);
    }

    #[test]
    fn large_slow_down_is_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&s(&A), &s(&b), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn any_rise_of_a_deterministic_value_is_worse() {
        // One sample a side: the bound does not apply.
        assert_eq!(verdict(&s(&[0.5]), &s(&[0.56]), false, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&s(&[0.5]), &s(&[0.5000001]), false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&s(&[0.5]), &s(&[0.49]), false, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&s(&[0.5]), &s(&[0.5]), false, 0.1),
            Verdict::WithinBound
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 4.0, 11.0, 9.0, 16.0];
        assert_eq!(verdict(&s(&A), &s(&noisy), false, 0.1), Verdict::Unresolved);
        // Every change sample beats every parent sample: no regression,
        // but the medians differ by less than the parent's spread, so no
        // gain can be claimed either.
        let faster = [9.0, 8.0, 9.5, 7.0, 9.6, 8.5, 9.1, 6.0, 9.7, 8.8];
        let wide_parent = [10.0, 14.0, 11.0, 19.0, 12.0, 10.5, 16.0, 13.0, 18.0, 11.5];
        assert_eq!(
            verdict(&s(&wide_parent), &s(&faster), false, 0.1),
            Verdict::WithinBound
        );
        let slower: Vec<f64> = wide_parent.iter().map(|x| x + 10.0).collect();
        assert_eq!(
            verdict(&s(&wide_parent), &s(&slower), false, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_two_results_documents() {
        let doc = |wall: &str| {
            Json::parse(&format!(
                r#"{{"reports": [{{"workload": "random-rw", "metrics": [
                    {{"name": "wall_s", "samples": [{wall}]}},
                    {{"name": "l2.hits", "samples": [1]}}]}}]}}"#
            ))
            .expect("valid JSON")
        };
        let (table, worse) =
            compare(&doc("2.0, 2.1, 1.9"), &doc("3.0, 3.1, 2.9")).expect("comparable");
        assert!(worse);
        assert!(table.contains("random-rw") && table.contains("Worse"));
        assert!(
            !table.contains("l2.hits"),
            "per-layer metrics have no verdict"
        );
    }
}
