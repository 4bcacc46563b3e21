//! Independent check of solver replies. The verifier keeps its own copy
//! of the edge list and computes `‖b − Lx‖ / ‖b‖` and the per-component
//! mean of `x` itself, using none of hicond's linear algebra.

use hicond::graph::Graph;

/// Largest accepted relative residual. The server solves to 1e-8; the
/// margin absorbs the difference between the recurrence and the true
/// residual.
pub const MAX_REL_RESIDUAL: f64 = 1e-6;
/// Largest accepted component mean of `x`, relative to `max |x|`.
pub const MAX_REL_MEAN: f64 = 1e-8;

/// Why one request did not count as a verified solve.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The server answered `ERR …`, or nothing, or something unparsable.
    Refused(String),
    /// The reply parsed but the solution is wrong.
    Wrong(String),
}

pub struct Verifier {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    comp: Vec<u32>,
    comp_size: Vec<f64>,
}

impl Verifier {
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let edges: Vec<(u32, u32, f64)> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        // Union-find with path halving, labels made dense afterwards.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut v: usize) -> usize {
            while p[v] != v {
                p[v] = p[p[v]];
                v = p[v];
            }
            v
        }
        for &(u, v, _) in &edges {
            let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            parent[a.max(b)] = a.min(b);
        }
        let mut label = vec![u32::MAX; n];
        let mut comp_size = Vec::new();
        let comp: Vec<u32> = (0..n)
            .map(|v| {
                let r = find(&mut parent, v);
                if label[r] == u32::MAX {
                    label[r] = comp_size.len() as u32;
                    comp_size.push(0.0);
                }
                comp_size[label[r] as usize] += 1.0;
                label[r]
            })
            .collect();
        Verifier {
            n,
            edges,
            comp,
            comp_size,
        }
    }

    /// Checks that `x` solves `L x = b` and has zero mean on every
    /// connected component.
    pub fn check(&self, b: &[f64], x: &[f64]) -> Result<(), Failure> {
        if x.len() != self.n || b.len() != self.n {
            return Err(Failure::Wrong(format!(
                "x has {} values, expected {}",
                x.len(),
                self.n
            )));
        }
        let mut r = b.to_vec();
        for &(u, v, w) in &self.edges {
            let (u, v) = (u as usize, v as usize);
            let f = w * (x[u] - x[v]);
            r[u] -= f;
            r[v] += f;
        }
        let norm = |a: &[f64]| a.iter().map(|t| t * t).sum::<f64>().sqrt();
        let rel = norm(&r) / norm(b).max(f64::MIN_POSITIVE);
        if rel.is_nan() || rel > MAX_REL_RESIDUAL {
            return Err(Failure::Wrong(format!("relative residual {rel:.3e}")));
        }
        let mut sums = vec![0.0; self.comp_size.len()];
        for (v, xv) in x.iter().enumerate() {
            sums[self.comp[v] as usize] += xv;
        }
        let scale = x
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for (s, size) in sums.iter().zip(&self.comp_size) {
            let mean = s / size;
            if mean.is_nan() || mean.abs() > MAX_REL_MEAN * scale {
                return Err(Failure::Wrong(format!("component mean {mean:.3e}")));
            }
        }
        Ok(())
    }

    /// Parses one `ok <iters> <residual> <x_0> … <x_{n-1}>` reply line and
    /// checks it against `b`.
    pub fn check_reply(&self, b: &[f64], reply: &str) -> Result<(), Failure> {
        let mut it = reply.split_ascii_whitespace();
        let refused = || Failure::Refused(reply.chars().take(80).collect());
        if it.next() != Some("ok") {
            return Err(refused());
        }
        it.next()
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(refused)?;
        it.next().ok_or_else(refused)?;
        let mut x = Vec::with_capacity(self.n);
        for t in it {
            x.push(t.parse::<f64>().map_err(|_| refused())?);
        }
        self.check(b, &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond::graph::generators;
    use hicond::precond::{LaplacianSolver, SolverOptions};

    #[test]
    fn accepts_a_solution_and_rejects_one_corrupted_value() {
        let g = generators::grid2d(12, 12, |u, v| 1.0 + ((u + v) % 3) as f64);
        let v = Verifier::new(&g);
        let b = crate::inputs::rhs_pool(g.num_vertices(), 5, 1).remove(0);
        let sol = LaplacianSolver::new(&g, &SolverOptions::default())
            .solve(&b)
            .unwrap();
        assert_eq!(v.check(&b, &sol.x), Ok(()));
        let mut x = sol.x.clone();
        x[17] += 1e-3 * (1.0 + x[17].abs());
        assert!(matches!(v.check(&b, &x), Err(Failure::Wrong(_))));
        assert!(matches!(
            v.check_reply(&b, "ERR busy: later"),
            Err(Failure::Refused(_))
        ));
    }
}
