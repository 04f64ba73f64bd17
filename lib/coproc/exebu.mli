(** The pool of homogeneous basic execution units ([ExeBU]s, §4.2.1), each
    accepting [pipes_per_unit] 128-bit µops per cycle. A vector compute
    instruction of width [vl] granules dispatches one µop to each of its
    core's [vl] ExeBUs (Figure 6(b)). *)

type t

val create : units:int -> pipes_per_unit:int -> t
val units : t -> int
val pipes_per_unit : t -> int

val begin_cycle : t -> cycle:int -> unit
(** Reset the per-cycle slot counters (idempotent per cycle). *)

val can_issue : t -> unit_ids:int list -> bool
val issue : t -> unit_ids:int list -> unit

val can_issue_arr : t -> unit_ids:int array -> n:int -> bool
(** {!can_issue} over [unit_ids.(0 .. n-1)] — allocation-free and
    counter-identical (one slot probe per call); the dispatcher's
    hot-path entry point. *)

val issue_arr : t -> unit_ids:int array -> n:int -> unit
(** {!issue} over [unit_ids.(0 .. n-1)] without the internal probe: the
    caller must have seen {!can_issue_arr} succeed on the same units this
    cycle, so a successful issue costs one {!issue_checks}. *)

val uops_executed : t -> int
val uops_of_unit : t -> int -> int

val issue_checks : t -> int
(** Slot probes ({!can_issue}/{!can_issue_arr} calls, including the one
    inside each {!issue}) — the work count behind the self-profiler's [dispatch]
    stage: compared with {!issues} it shows how much of the issue scan
    probes without issuing. *)

val issues : t -> int
(** Successful {!issue} calls (instructions, not µops). *)
