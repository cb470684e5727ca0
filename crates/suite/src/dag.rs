//! Typed jobs and the validated dependency DAG.
//!
//! A [`Job`] couples an identifier, declared dependency edges, declared
//! inputs/outputs (documentation surfaced by `--list`) and a `run` closure
//! producing a [`JobOutcome`]. [`Dag::new`] rejects duplicate ids, dangling
//! dependencies and cycles at construction, so the executor can assume a
//! well-formed schedule.

use crate::scope::ExecScope;
use std::collections::HashMap;
use std::sync::Arc;

/// What one job execution produced.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// The job's stdout contribution — byte-identical to what the job's
    /// standalone binary prints.
    pub stdout: String,
    /// Artifact-store lookups that hit while this job ran.
    pub artifact_hits: u64,
    /// Artifact-store lookups that missed while this job ran.
    pub artifact_misses: u64,
    /// Content digests of artifacts this job produced or pinned, as
    /// ⟨name, digest⟩ pairs — recorded in the run manifest.
    pub artifacts: Vec<(String, u64)>,
}

/// One schedulable unit of the evaluation suite.
///
/// Cloning a job is cheap: the `run` closure is shared behind an [`Arc`],
/// which is what lets one canonical [`Dag`] serve every daemon request via
/// [`Dag::subgraph`] without rebuilding closures. The closure receives the
/// [`ExecScope`] of the execution running it, so state it shares with
/// other jobs lives exactly as long as that execution.
#[derive(Clone)]
pub struct Job {
    id: String,
    deps: Vec<String>,
    inputs: Vec<String>,
    outputs: Vec<String>,
    emits_stdout: bool,
    run: Arc<dyn Fn(&ExecScope) -> JobOutcome + Send + Sync>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("deps", &self.deps)
            .field("emits_stdout", &self.emits_stdout)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// A job named `id` running `run`, initially with no edges.
    pub fn new(
        id: impl Into<String>,
        run: impl Fn(&ExecScope) -> JobOutcome + Send + Sync + 'static,
    ) -> Job {
        Job {
            id: id.into(),
            deps: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            emits_stdout: false,
            run: Arc::new(run),
        }
    }

    /// Adds a dependency edge: this job runs only after `dep` completed.
    #[must_use]
    pub fn dep(mut self, dep: impl Into<String>) -> Job {
        self.deps.push(dep.into());
        self
    }

    /// Adds dependency edges on every id in `deps`.
    #[must_use]
    pub fn deps<I: IntoIterator<Item = S>, S: Into<String>>(mut self, deps: I) -> Job {
        self.deps.extend(deps.into_iter().map(Into::into));
        self
    }

    /// Declares an input (documentation; shown by `--list`).
    #[must_use]
    pub fn input(mut self, input: impl Into<String>) -> Job {
        self.inputs.push(input.into());
        self
    }

    /// Declares an output (documentation; shown by `--list`).
    #[must_use]
    pub fn output(mut self, output: impl Into<String>) -> Job {
        self.outputs.push(output.into());
        self
    }

    /// Marks this job as contributing to the suite's stdout (paper
    /// artifacts do; dataset/oracle preparation jobs don't).
    #[must_use]
    pub fn emits_stdout(mut self) -> Job {
        self.emits_stdout = true;
        self
    }

    /// The job's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Dependency ids.
    pub fn dep_ids(&self) -> &[String] {
        &self.deps
    }

    /// Declared inputs.
    pub fn declared_inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Declared outputs.
    pub fn declared_outputs(&self) -> &[String] {
        &self.outputs
    }

    /// Whether this job contributes to suite stdout.
    pub fn is_stdout_job(&self) -> bool {
        self.emits_stdout
    }

    /// Executes the job's closure within `scope`.
    pub fn execute(&self, scope: &ExecScope) -> JobOutcome {
        (self.run)(scope)
    }
}

/// Why a [`Dag`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two jobs share an id.
    DuplicateId(String),
    /// A job depends on an id that no job has.
    UnknownDep {
        /// The depending job.
        job: String,
        /// The missing dependency id.
        dep: String,
    },
    /// The dependency graph has a cycle through this job.
    Cycle(String),
    /// `--only` named a job that does not exist.
    UnknownTarget(String),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateId(id) => write!(f, "duplicate job id {id:?}"),
            DagError::UnknownDep { job, dep } => {
                write!(f, "job {job:?} depends on unknown job {dep:?}")
            }
            DagError::Cycle(id) => write!(f, "dependency cycle through job {id:?}"),
            DagError::UnknownTarget(id) => write!(f, "no job named {id:?}"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated job DAG. Job order is declaration order; stdout-emitting
/// jobs print in that order regardless of execution interleaving.
#[derive(Debug, Clone)]
pub struct Dag {
    jobs: Vec<Job>,
    index: HashMap<String, usize>,
}

impl Dag {
    /// Validates `jobs` into a DAG (unique ids, resolvable deps, acyclic).
    pub fn new(jobs: Vec<Job>) -> Result<Dag, DagError> {
        let mut index = HashMap::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            if index.insert(job.id.clone(), i).is_some() {
                return Err(DagError::DuplicateId(job.id.clone()));
            }
        }
        for job in &jobs {
            for dep in &job.deps {
                if !index.contains_key(dep) {
                    return Err(DagError::UnknownDep {
                        job: job.id.clone(),
                        dep: dep.clone(),
                    });
                }
            }
        }
        let dag = Dag { jobs, index };
        dag.check_acyclic()?;
        Ok(dag)
    }

    /// Kahn's algorithm: if not every job can be scheduled, some job sits
    /// on a cycle — report one of them.
    fn check_acyclic(&self) -> Result<(), DagError> {
        let mut remaining: Vec<usize> = self.jobs.iter().map(|j| j.deps.len()).collect();
        let dependents = self.dependents();
        let mut ready: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| remaining[i] == 0)
            .collect();
        let mut scheduled = 0;
        while let Some(i) = ready.pop() {
            scheduled += 1;
            for &d in &dependents[i] {
                remaining[d] -= 1;
                if remaining[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if scheduled == self.jobs.len() {
            Ok(())
        } else {
            let stuck = remaining
                .iter()
                .zip(&self.jobs)
                .find(|(&r, _)| r > 0)
                .map(|(_, j)| j.id.clone())
                .unwrap_or_default();
            Err(DagError::Cycle(stuck))
        }
    }

    /// For each job index, the indices of jobs depending on it.
    pub(crate) fn dependents(&self) -> Vec<Vec<usize>> {
        let mut dependents = vec![Vec::new(); self.jobs.len()];
        for (i, job) in self.jobs.iter().enumerate() {
            for dep in &job.deps {
                dependents[self.index[dep]].push(i);
            }
        }
        dependents
    }

    /// The jobs, in declaration order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Index of the job named `id`, if any.
    pub fn position(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Restricts the DAG to `targets` plus everything they transitively
    /// depend on, preserving declaration order (`--only`). Borrows rather
    /// than consumes — job closures are shared, so one canonical DAG can
    /// hand out per-request subgraphs indefinitely.
    pub fn subgraph(&self, targets: &[String]) -> Result<Dag, DagError> {
        let mut keep = vec![false; self.jobs.len()];
        let mut stack = Vec::new();
        for t in targets {
            let i = self
                .position(t)
                .ok_or_else(|| DagError::UnknownTarget(t.clone()))?;
            stack.push(i);
        }
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut keep[i], true) {
                continue;
            }
            for dep in &self.jobs[i].deps {
                stack.push(self.index[dep]);
            }
        }
        let kept: Vec<Job> = self
            .jobs
            .iter()
            .zip(keep)
            .filter(|&(_, k)| k)
            .map(|(j, _)| j.clone())
            .collect();
        Dag::new(kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(id: &str) -> Job {
        Job::new(id, |_| JobOutcome::default())
    }

    #[test]
    fn accepts_a_valid_dag_in_declaration_order() {
        let dag = Dag::new(vec![
            noop("a"),
            noop("b").dep("a"),
            noop("c").deps(["a", "b"]).emits_stdout(),
        ])
        .expect("valid");
        assert_eq!(dag.len(), 3);
        let ids: Vec<&str> = dag.jobs().iter().map(Job::id).collect();
        assert_eq!(ids, ["a", "b", "c"]);
        assert!(dag.jobs()[2].is_stdout_job());
        assert!(!dag.jobs()[0].is_stdout_job());
    }

    #[test]
    fn rejects_duplicates_dangling_deps_and_cycles() {
        assert_eq!(
            Dag::new(vec![noop("a"), noop("a")]).unwrap_err(),
            DagError::DuplicateId("a".into())
        );
        assert_eq!(
            Dag::new(vec![noop("a").dep("ghost")]).unwrap_err(),
            DagError::UnknownDep {
                job: "a".into(),
                dep: "ghost".into()
            }
        );
        let err = Dag::new(vec![noop("a").dep("b"), noop("b").dep("a")]).unwrap_err();
        assert!(matches!(err, DagError::Cycle(_)), "{err:?}");
        // Self-loops are cycles too.
        let err = Dag::new(vec![noop("a").dep("a")]).unwrap_err();
        assert_eq!(err, DagError::Cycle("a".into()));
    }

    #[test]
    fn subgraph_keeps_transitive_deps_only() {
        let dag = Dag::new(vec![
            noop("data"),
            noop("oracle").dep("data"),
            noop("table2").dep("oracle"),
            noop("fig5"),
            noop("fig6").dep("oracle"),
        ])
        .expect("valid");
        let only = dag.subgraph(&["table2".into()]).expect("subgraph");
        let ids: Vec<&str> = only.jobs().iter().map(Job::id).collect();
        assert_eq!(ids, ["data", "oracle", "table2"]);

        let dag = Dag::new(vec![noop("a")]).expect("valid");
        assert_eq!(
            dag.subgraph(&["nope".into()]).unwrap_err(),
            DagError::UnknownTarget("nope".into())
        );
    }

    #[test]
    fn one_canonical_dag_serves_many_subgraphs() {
        let dag = Dag::new(vec![
            noop("data"),
            noop("oracle").dep("data"),
            noop("table2").dep("oracle"),
            noop("fig5"),
        ])
        .expect("valid");
        // `subgraph` borrows: the same DAG keeps answering requests, and a
        // failed lookup doesn't poison it.
        assert!(dag.subgraph(&["ghost".into()]).is_err());
        let a = dag.subgraph(&["table2".into()]).expect("first request");
        let b = dag.subgraph(&["fig5".into()]).expect("second request");
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 1);
        assert_eq!(dag.len(), 4, "canonical DAG unchanged");
    }
}
