(** Parallel map over OCaml 5 [Domain]s, backed by the long-lived
    work-stealing pool in {!Work_steal}.

    The evaluation harness is a sweep of independent simulations (25
    pairs x 4 architectures, lane sweeps, ablations, 4-core groups);
    every simulation draws from its own explicit {!Rng.t} seed, so the
    tasks can run on any domain in any order and the results are still
    bit-identical to a sequential run. This module provides exactly
    that: tasks distributed over per-worker deques with randomized
    stealing, results written into a pre-sized array so output ordering
    is deterministic regardless of the steal schedule, and one pool of
    domains reused across calls (the PR-1 design paid a fresh
    spawn/join plus cross-domain GC barriers on every [map]).

    {2 Elastic worker count}

    [jobs] is a {e request}; the pool runs on
    [min jobs tasks (Domain.recommended_domain_count ())] workers unless
    [~oversubscribe:true] (or [OCCAMY_OVERSUBSCRIBE=1]) forces the full
    request. Rationale: OCaml 5's minor collections stop {e all}
    domains, so with more busy domains than cores every collection waits
    on OS scheduling quanta — measured at up to 13x slower than
    sequential on this workload. Capping at the core count is what makes
    [-j 64] on a 4-core host behave like [-j 4] instead of melting down.

    Guarantees, whatever [jobs] is:
    - an effective worker count of 1 (explicit [~jobs:1], a single
      task, or the elastic cap on a 1-core host) spawns no domains and
      runs everything on the calling domain;
    - output order always matches input order;
    - a task exception is captured (with its backtrace) and re-raised
      on the calling domain; when several tasks fail, the one with the
      lowest input index wins, deterministically;
    - [f] runs exactly once per element. *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] capped at [cap] (default 16)
    and floored at 1: the default worker count for the harness.
    [recommended_domain_count] already reflects the host's usable
    cores, so [cap] only matters on machines with more than [cap]
    cores — raise it (e.g. via the CLI's [--max-jobs]) to let wide
    hosts use more of themselves, or lower it to leave cores free. *)

val jobs_from_env :
  ?var:string -> ?cap:int -> ?on_warning:(string -> unit) -> unit -> int
(** Worker count from the environment variable [var] (default
    ["OCCAMY_JOBS"]); falls back to [recommended_jobs ?cap ()] when the
    variable is unset or empty. A set-but-invalid value (non-numeric or
    < 1) also falls back, but loudly: [on_warning] receives a message
    naming the variable and the bad value (default: print it to
    stderr). *)

val oversubscribe_from_env : unit -> bool
(** Whether OCCAMY_OVERSUBSCRIBE is set to ["1"], ["true"], ["yes"] or
    ["on"]: the default for [map]'s [?oversubscribe] — exposed so
    callers that must resolve the knob themselves (e.g. to size batches
    with {!effective_workers}) agree with [map]. *)

val effective_workers :
  oversubscribe:bool -> cores:int -> jobs:int -> tasks:int -> int
(** The worker count a [map] with these parameters actually uses:
    [min jobs tasks], additionally capped at [cores] (floored at 1)
    unless [oversubscribe]. Exposed pure so the elastic policy is
    unit-testable; [map] calls it with
    [cores = Domain.recommended_domain_count ()]. *)

type observer =
  worker:int -> index:int -> phase:[ `Start | `Stop | `Steal of int ] -> unit
(** Task-span hook for tracing: called immediately before ([`Start]) and
    after ([`Stop]) each task, from the worker domain running it.
    [`Steal v] additionally fires (before [`Start]) when the task was
    stolen from worker [v]'s deque. [worker] is a stable id in
    [0 .. jobs-1] ([0] on the sequential path), so an observer writing
    to per-worker sinks — e.g. [Occamy_obs.Trace.sweep_observer]'s
    per-worker tracks — is race-free. [`Stop] fires even when the task
    raises. Must not raise itself. *)

type stats = Work_steal.stats = {
  st_workers : int;
  st_tasks : int;
  st_by_worker : Work_steal.worker_stats array;
}
(** Per-call scheduler diagnostics (see {!Work_steal.stats}): worker
    count actually used, tasks/steals per worker, and per-worker
    [Gc.quick_stat] deltas. *)

val map :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?observer:observer ->
  ?stats:(stats -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] is [List.map f xs] computed on
    {!effective_workers} domains. [jobs] defaults to
    {!recommended_jobs}; [stats] (called on the calling domain before
    [map] returns, even when a task failed) receives the scheduler
    diagnostics for this call. Raises [Invalid_argument] when
    [jobs < 1]. *)

val map_array :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?observer:observer ->
  ?stats:(stats -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Array counterpart of {!map}. *)

(** {2 Cumulative diagnostics}

    Every [map] also folds its {!stats} into a process-wide running
    total, so the bench harness can attribute a whole section's GC and
    steal behaviour without threading callbacks through each runner. *)

type totals = {
  t_tasks : int;
  t_max_workers : int;  (** widest effective worker count seen *)
  t_steals : int;
  t_steal_attempts : int;
  t_minor_collections : int;
  t_promoted_words : float;
}

val reset_totals : unit -> unit
val totals : unit -> totals

val pool_size : unit -> int
(** Domains currently alive in the shared pool (spawned workers + the
    caller); [1] before any parallel [map] ran. *)
