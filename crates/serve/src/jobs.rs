//! Bounded job queue with in-flight deduplication and graceful drain.
//!
//! Connection threads [`JobTable::submit`] validated requests; worker
//! threads block in [`JobTable::next_job`] until work arrives, and take
//! the request payload with the job: a record keeps only what the status
//! and listing documents report. A queued or running job's record stays
//! until the job finishes; of the finished ones only the newest 1,024
//! (`FINISHED_KEPT`) are kept, so the table does not grow with the
//! daemon's age. A poller needs a finished record only between its last
//! "running" poll and its "done" poll; an evicted id answers 404 like any
//! unknown one, and a resubmission of its request is a cache hit. Two
//! concurrent submissions of the same digest share one job (the second
//! submitter gets the first job's id), so a thundering herd of identical
//! requests costs one simulation. [`JobTable::drain`] stops intake and
//! releases each worker with `None` once the queue empties — the
//! daemon's graceful-shutdown path.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Finished (done or failed) job records kept for status polls; the
/// oldest finished record goes first.
const FINISHED_KEPT: usize = 1024;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the result is in the cache under the job's digest.
    Done,
    /// The simulation failed (message retained for the status endpoint).
    Failed(String),
}

impl JobStatus {
    /// The status string the `/v1/jobs/<id>` document reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One job's bookkeeping, cloned out for status responses.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// `j-000001`-style id, assigned at submission.
    pub id: String,
    /// The request's content digest (the cache key of its result).
    pub digest: String,
    /// Where the job is in its lifecycle.
    pub status: JobStatus,
    /// Completion estimate in thousandths, updated by the worker's
    /// progress sink.
    pub progress_permille: u64,
}

/// A job as [`JobTable::next_job`] hands it to a worker.
#[derive(Debug)]
pub struct Job {
    /// The job's id.
    pub id: String,
    /// The request's content digest (the cache key of its result).
    pub digest: String,
    /// The canonical request document to execute. It travels in the
    /// queue beside the job's id, so queueing and payload hand-off are
    /// one atomic step, and leaves the table with the job.
    pub payload: String,
}

/// What [`JobTable::submit`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submit {
    /// A new job was queued.
    New(String),
    /// An identical request is already queued or running; ride along.
    InFlight(String),
    /// The queue is at capacity — answer 503 and let the client retry.
    QueueFull,
    /// The daemon is draining — no new work.
    Draining,
}

#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<String, JobRecord>,
    /// Queued job ids, each with its payload.
    queue: VecDeque<(String, String)>,
    /// digest -> job id for queued/running jobs (in-flight dedup).
    by_digest: HashMap<String, String>,
    /// Finished job ids, oldest first, at most [`FINISHED_KEPT`].
    finished: VecDeque<String>,
    next_id: u64,
    draining: bool,
}

/// The shared queue: one instance, reference-counted across connection
/// and worker threads.
#[derive(Debug)]
pub struct JobTable {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    queue_cap: usize,
}

impl JobTable {
    /// A table whose queue holds at most `queue_cap` waiting jobs.
    pub fn new(queue_cap: usize) -> JobTable {
        JobTable {
            inner: Mutex::new(Inner::default()),
            work_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
        }
    }

    /// Queues a job for `digest` carrying the canonical request document
    /// `payload`, deduplicating against identical in-flight work.
    pub fn submit(&self, digest: &str, payload: &str) -> Submit {
        let mut inner = self.inner.lock().expect("job mutex poisoned");
        if inner.draining {
            return Submit::Draining;
        }
        if let Some(id) = inner.by_digest.get(digest) {
            return Submit::InFlight(id.clone());
        }
        if inner.queue.len() >= self.queue_cap {
            return Submit::QueueFull;
        }
        inner.next_id += 1;
        let id = format!("j-{:06}", inner.next_id);
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                id: id.clone(),
                digest: digest.to_string(),
                status: JobStatus::Queued,
                progress_permille: 0,
            },
        );
        inner.by_digest.insert(digest.to_string(), id.clone());
        inner.queue.push_back((id.clone(), payload.to_string()));
        self.work_ready.notify_one();
        Submit::New(id)
    }

    /// Blocks until a job is available, marks it `Running`, and returns
    /// it with its payload. Returns `None` once the table is draining and
    /// the queue is empty — the worker's signal to exit.
    pub fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job mutex poisoned");
        loop {
            if let Some((id, payload)) = inner.queue.pop_front() {
                let rec = inner.jobs.get_mut(&id).expect("queued job exists");
                rec.status = JobStatus::Running;
                let digest = rec.digest.clone();
                return Some(Job {
                    id,
                    digest,
                    payload,
                });
            }
            if inner.draining {
                return None;
            }
            inner = self.work_ready.wait(inner).expect("job mutex poisoned");
        }
    }

    /// Updates a running job's completion estimate (thousandths).
    pub fn set_progress(&self, id: &str, permille: u64) {
        let mut inner = self.inner.lock().expect("job mutex poisoned");
        if let Some(rec) = inner.jobs.get_mut(id) {
            rec.progress_permille = permille.min(1000);
        }
    }

    /// Marks a job `Done` (its result is now in the cache).
    pub fn complete(&self, id: &str) {
        self.finish(id, JobStatus::Done);
    }

    /// Marks a job `Failed` with the simulation's error message.
    pub fn fail(&self, id: &str, error: String) {
        self.finish(id, JobStatus::Failed(error));
    }

    fn finish(&self, id: &str, status: JobStatus) {
        let mut inner = self.inner.lock().expect("job mutex poisoned");
        if let Some(rec) = inner.jobs.get_mut(id) {
            rec.progress_permille = if status == JobStatus::Done {
                1000
            } else {
                rec.progress_permille
            };
            rec.status = status;
            let digest = rec.digest.clone();
            inner.by_digest.remove(&digest);
            inner.finished.push_back(id.to_string());
            if inner.finished.len() > FINISHED_KEPT {
                let oldest = inner.finished.pop_front().expect("over the bound");
                inner.jobs.remove(&oldest);
            }
        }
    }

    /// A snapshot of one job's record.
    pub fn status(&self, id: &str) -> Option<JobRecord> {
        self.inner
            .lock()
            .expect("job mutex poisoned")
            .jobs
            .get(id)
            .cloned()
    }

    /// A bounded snapshot of the live (queued or running) jobs: running
    /// jobs first (id order), then queued ones in queue order, at most
    /// `limit` records. Also returns the total live count, so a caller
    /// can tell when the listing was truncated.
    pub fn list(&self, limit: usize) -> (Vec<JobRecord>, usize) {
        let inner = self.inner.lock().expect("job mutex poisoned");
        let mut running: Vec<&JobRecord> = inner
            .jobs
            .values()
            .filter(|r| r.status == JobStatus::Running)
            .collect();
        running.sort_by(|a, b| a.id.cmp(&b.id));
        let total = running.len() + inner.queue.len();
        let queued = inner
            .queue
            .iter()
            .map(|(id, _)| inner.jobs.get(id).expect("queued job exists"));
        let records = running
            .into_iter()
            .chain(queued)
            .take(limit)
            .cloned()
            .collect();
        (records, total)
    }

    /// Jobs waiting for a worker right now.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().expect("job mutex poisoned").queue.len()
    }

    /// Whether [`JobTable::drain`] has been called.
    pub fn draining(&self) -> bool {
        self.inner.lock().expect("job mutex poisoned").draining
    }

    /// Stops intake and wakes every worker so each exits once the queue
    /// is empty.
    pub fn drain(&self) {
        let mut inner = self.inner.lock().expect("job mutex poisoned");
        inner.draining = true;
        self.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn submit_dedup_and_lifecycle() {
        let table = JobTable::new(8);
        let Submit::New(id) = table.submit("d1", "{}") else {
            panic!("first submit must queue");
        };
        assert_eq!(table.submit("d1", "{}"), Submit::InFlight(id.clone()));
        assert_eq!(table.queue_depth(), 1);

        let job = table.next_job().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(table.status(&id).unwrap().status, JobStatus::Running);
        // Still in flight while running: dedup continues to apply.
        assert_eq!(table.submit("d1", "{}"), Submit::InFlight(id.clone()));

        table.set_progress(&id, 400);
        assert_eq!(table.status(&id).unwrap().progress_permille, 400);
        table.complete(&id);
        let done = table.status(&id).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(done.progress_permille, 1000);
        // Completed jobs no longer dedup — a resubmit is the cache's
        // problem, and here it queues fresh.
        assert!(matches!(table.submit("d1", "{}"), Submit::New(_)));
    }

    /// The worker takes the payload with its job; the table keeps only
    /// what the status and listing documents report.
    #[test]
    fn the_payload_leaves_the_table_with_its_job() {
        let table = JobTable::new(2);
        let payload = r#"{"type":"run","marker":"payload-7f3a"}"#;
        let Submit::New(id) = table.submit("d7", payload) else {
            panic!("queue");
        };
        assert!(format!("{table:?}").contains("payload-7f3a"), "queued");
        let job = table.next_job().unwrap();
        assert_eq!(
            (job.id.as_str(), job.digest.as_str(), job.payload.as_str()),
            (id.as_str(), "d7", payload)
        );
        table.complete(&id);
        assert!(
            !format!("{table:?}").contains("payload-7f3a"),
            "the table keeps no payload once a worker has it"
        );
        let rec = table.status(&id).unwrap();
        assert_eq!((rec.status, rec.progress_permille), (JobStatus::Done, 1000));
    }

    #[test]
    fn queue_capacity_and_drain() {
        let table = JobTable::new(2);
        assert!(matches!(table.submit("a", "{}"), Submit::New(_)));
        assert!(matches!(table.submit("b", "{}"), Submit::New(_)));
        assert_eq!(table.submit("c", "{}"), Submit::QueueFull);

        table.drain();
        assert_eq!(table.submit("d", "{}"), Submit::Draining);
        // Queued work still drains before workers are released.
        assert!(table.next_job().is_some());
        assert!(table.next_job().is_some());
        assert!(table.next_job().is_none());
    }

    #[test]
    fn only_the_newest_finished_records_are_kept() {
        let table = JobTable::new(FINISHED_KEPT + 2);
        let mut ids = Vec::new();
        for n in 0..=FINISHED_KEPT + 1 {
            let Submit::New(id) = table.submit(&format!("d{n}"), "{}") else {
                panic!("queue");
            };
            ids.push(id);
        }
        // The last job is taken but never finishes.
        for id in &ids {
            assert_eq!(&table.next_job().unwrap().id, id);
        }
        let running = ids.pop().unwrap();
        for (n, id) in ids.iter().enumerate() {
            if n % 2 == 0 {
                table.complete(id);
            } else {
                table.fail(id, "budget exceeded".into());
            }
        }
        assert_eq!(ids.len(), FINISHED_KEPT + 1);
        assert!(table.status(&ids[0]).is_none(), "oldest finished evicted");
        assert_eq!(table.status(&ids[1]).unwrap().status.name(), "failed");
        let newest = table.status(ids.last().unwrap()).unwrap();
        assert_eq!(newest.status, JobStatus::Done);
        let rec = table.status(&running).expect("running record kept");
        assert_eq!(rec.status, JobStatus::Running);
        let (listed, live) = table.list(10);
        assert_eq!(
            (listed.len(), live, listed[0].id.as_str()),
            (1, 1, running.as_str())
        );
    }

    #[test]
    fn failed_jobs_keep_their_error() {
        let table = JobTable::new(2);
        let Submit::New(id) = table.submit("x", "{}") else {
            panic!("queue");
        };
        table.next_job().unwrap();
        table.fail(&id, "budget exceeded".into());
        let rec = table.status(&id).unwrap();
        assert_eq!(rec.status, JobStatus::Failed("budget exceeded".into()));
        assert_eq!(rec.status.name(), "failed");
    }

    #[test]
    fn drain_releases_blocked_workers() {
        let table = Arc::new(JobTable::new(2));
        let t2 = Arc::clone(&table);
        let worker = std::thread::spawn(move || t2.next_job());
        // Give the worker a moment to block, then drain.
        std::thread::sleep(std::time::Duration::from_millis(20));
        table.drain();
        assert!(worker.join().unwrap().is_none());
    }
}
