(** A long-lived work-stealing domain pool.

    This is the engine under {!Domain_pool}: a fixed set of worker
    domains, spawned once and parked between jobs, executing indexed
    task sets ([f 0 .. f (n-1)]) with per-worker deques and randomized
    stealing. It replaces the PR-1 design (one shared atomic cursor +
    fresh [Domain.spawn] per map), whose fig10 profile was dominated by
    repeated spawn/join cost and minor-GC barriers across oversubscribed
    domains.

    {2 Deque representation}

    All tasks of a job are known up front and never pushed mid-run, so a
    worker's "deque" is simply a contiguous index range [\[lo, hi)]
    packed into a {e single} atomic integer ([lo lsl 31 lor hi]). The
    owner CASes [(lo, hi)] to [(lo+1, hi)] to take from the front;
    thieves CAS [(lo, hi)] to [(lo, hi-1)] to steal from the back, with
    bounded exponential backoff on contention. Compared to a Chase-Lev
    ring this needs no buffer, allocates nothing per task, and is
    ABA-free (both ends move monotonically); pairing the two updates in
    one CAS also closes the classic two-counter race where the owner and
    a thief both claim the last element.

    {2 Completion and stats}

    Job completion is an atomic remaining-task counter; the caller
    participates as worker 0 and then blocks on a condition variable
    until every task ran {e and} every spawned worker acknowledged the
    job (the ack barrier is what makes the per-worker stats below
    complete). Each participant records a {!worker_stats}: tasks run,
    steals, steal attempts, and its [Gc.quick_stat] deltas — the
    diagnosis data for the fig10 regression (stop-the-world minor
    collections multiply under oversubscription).

    Spawned workers (and the creating domain) get their minor heap
    inflated by [minor_heap_mult] (default 16x): with more busy domains
    than cores, every minor collection is a stop-the-world barrier
    paying an OS scheduling quantum per blocked domain, so fewer, larger
    minor collections dominate. Measured on a 1-core host: 4 busy
    domains run ~13x slower than sequential with the default minor heap,
    ~2.4x with 16x; 64x regresses even sequential code. *)

type observer =
  worker:int -> index:int -> phase:[ `Start | `Stop | `Steal of int ] -> unit
(** Task-span hook. [`Start]/[`Stop] bracket each task on the worker
    running it ([`Stop] fires even when the task raises). [`Steal v]
    fires on the thief just before the [`Start] of a task it stole from
    worker [v]'s deque. Must not raise; a raising observer is treated
    like a failing task. *)

type worker_stats = {
  ws_tasks : int;  (** tasks this worker executed (own + stolen) *)
  ws_steals : int;  (** tasks it stole from other workers *)
  ws_steal_attempts : int;  (** deque probes, successful or not *)
  ws_minor_collections : int;  (** [Gc.quick_stat] delta over the job *)
  ws_major_collections : int;
  ws_minor_words : float;
  ws_promoted_words : float;
}

type stats = {
  st_workers : int;  (** workers that participated in this job *)
  st_tasks : int;
  st_by_worker : worker_stats array;  (** length [st_workers] *)
}

val zero_worker_stats : worker_stats
val add_worker_stats : worker_stats -> worker_stats -> worker_stats
val sum_stats : stats -> worker_stats

type t

val create : ?minor_heap_mult:int -> unit -> t
(** A pool with no spawned domains yet; {!run} grows it on demand and
    the domains persist (parked on a condition variable) until
    {!shutdown}. [minor_heap_mult] (default 16, clamp to >= 1; 1 =
    leave the GC alone) scales each worker domain's minor heap. *)

val size : t -> int
(** Domains currently alive: spawned workers + the caller. *)

val run :
  t ->
  workers:int ->
  ?observer:observer ->
  ?on_stats:(stats -> unit) ->
  (int -> unit) ->
  int ->
  stats
(** [run t ~workers f n] executes [f 0 .. f (n-1)], each exactly once,
    on [min workers n] workers (the calling domain is worker 0). Task
    exceptions are captured; after {e all} tasks ran, the one with the
    lowest index is re-raised on the caller with its backtrace —
    deterministic whatever the steal schedule. [on_stats] (default
    ignore) runs on the caller just before that re-raise, so accounting
    survives failing jobs. If the pool is already running a job (nested
    or concurrent [run]), the call degrades to sequential execution on
    the caller rather than deadlocking. Raises [Invalid_argument] when
    [workers < 1] or [n < 0]. *)

val shutdown : t -> unit
(** Stop and join all spawned domains. Idempotent; the pool remains
    usable (a later {!run} respawns workers). *)

val inflate_minor_heap : int -> unit
(** Scale the {e calling} domain's minor heap by the given multiplier
    (<= 1 is a no-op). {!run} applies this inside every spawned worker;
    the pool's creator should call it once on its own domain, since the
    caller participates as worker 0 and per-domain GC parameters do not
    cross [Domain.spawn]. *)
