(** Fault injection and the differential masking oracle.

    The fault model is a transient single-event upset in the SIMD
    datapath: one bit of one f32 lane flips as a value is written back —
    an ALU result or broadcast entering the lane register file
    ([Site_reg]), or load return data ([Site_load]). The voter output
    ([Site_vote]) and the store data path ([Site_store]) are outside the
    sphere of replication (hardened voter, ECC memory — the standard TMR
    boundary) and are excluded for plain and TMR runs alike, so both
    lowerings face the identical fault surface.

    The timing simulator carries no vector values, so faults are
    decided and applied only here, in the functional interpreter,
    through its [fault_hook].

    The oracle ({!check}) asserts, per case:

    + both lowerings compute the scalar reference when fault-free (the
      TMR voters are semantically transparent);
    + {b masking}: under TMR, every injected single-lane flip leaves the
      final memory bit-identical to the fault-free run — a divergence is
      silent corruption and fails the case;
    + under plain lowering each flip is classified detected (output
      diverges — the differential pipeline would catch it) or benign
      (logically masked); both are recorded, neither fails;
    + on all four architectures, the TMR binary runs bit-identically on
      the two simulator tick loops, and its traffic matches the
      TMR-aware Equation-5 prediction. *)

type fault = {
  f_op : int;   (** eligible-opportunity index the flip fires on *)
  f_lane : int; (** f32 lane (reduced modulo the transfer length) *)
  f_bit : int;  (** bit of the IEEE-754 single encoding, [0..31] *)
}

val pp_fault : Format.formatter -> fault -> unit

val flip_f32 : float -> int -> float
(** [flip_f32 v bit] flips one bit of [v]'s f32 encoding. *)

val eligible : Occamy_isa.Interp.fault_site -> bool
(** Is a site inside the sphere of replication? *)

val count_hook : int ref -> Occamy_isa.Interp.fault_hook
(** Hook that only counts eligible opportunities. *)

val schedule_hook :
  applied:fault list ref -> fault list -> Occamy_isa.Interp.fault_hook
(** Hook applying an explicit fault schedule; each landed flip (with its
    lane reduced) is consed onto [applied]. *)

val fault_env : Occamy_isa.Interp.env
(** The fixed solo environment every fault run executes under: baseline
    and trials must issue the identical dynamic instruction sequence or
    opportunity indices would not line up. *)

val exec :
  ?fault_hook:Occamy_isa.Interp.fault_hook ->
  Occamy_core.Workload.t ->
  (string, float array) Hashtbl.t ->
  Occamy_isa.Interp.state
(** Run one compiled workload to completion under {!fault_env}, memory
    seeded from the init image, with an optional fault hook. *)

val snapshot :
  Occamy_isa.Interp.state -> Occamy_isa.Program.t -> int64 array array
(** Final contents of every declared array as raw f64 bits — trials
    compare bit-identically (NaN equals itself, no tolerance). *)

val first_mismatch :
  Occamy_isa.Program.t ->
  int64 array array ->
  int64 array array ->
  string option
(** First element where two snapshots disagree, rendered for humans;
    [None] when bit-identical. *)

type stats = {
  plain_opportunities : int;
  tmr_opportunities : int;
  tmr_trials : int;
  tmr_masked : int;      (** equals [tmr_trials] whenever {!check} is [Ok] *)
  plain_trials : int;
  plain_detected : int;  (** plain-mode flips visible in the output *)
  plain_benign : int;    (** plain-mode flips logically masked *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

val gen_cfg : Gen.cfg
(** Generator configuration for fault cases: shallower and shorter than
    {!Gen.default_cfg}, because TMR triples live vector registers and
    dynamic instructions. *)

val default_trials : int

val case_of_seed : int -> Diff.case
(** {!Diff.case_of_seed} under {!gen_cfg}. *)

val check : ?trials:int -> Diff.case -> (stats, Diff.failure) result
(** Run the full masking oracle (header comment) on one case, with
    [trials] (default {!default_trials}) independent single-fault runs
    per lowering. *)

val check_case : ?trials:int -> int -> (stats, Diff.failure) result
(** [check] of [case_of_seed]. *)

val oracle : ?trials:int -> Diff.case -> (unit, Diff.failure) result
(** [check] with the stats erased — the predicate handed to
    {!Shrink.minimise} when minimising a fault counterexample. *)

val minimise_faults :
  ?max_tries:int ->
  still_fails:(fault list -> bool) ->
  fault list ->
  fault list
(** Reduce a multi-fault witness to a minimal schedule on which
    [still_fails] holds — single-fault whenever one flip suffices
    (greedy {!Shrink.minimise_list} descent). *)

type counterexample = {
  cx_index : int;
  cx_seed : int;
  cx_failure : Diff.failure;
  cx_original : Diff.case;
  cx_shrunk : Diff.case;
  cx_steps : int;
}

type report = {
  root_seed : int;
  cases_run : int;
  elapsed : float;
  totals : stats;  (** summed over every passing case *)
  counterexample : counterexample option;
}

val run :
  ?trials:int ->
  ?minutes:float ->
  ?on_batch:(done_:int -> unit) ->
  ?oversubscribe:bool ->
  seed:int ->
  count:int ->
  jobs:int ->
  unit ->
  report
(** A fault-injection fuzzing campaign with {!Fuzz.run}'s seed
    discipline: case [i] is {!Rng.case_seed}[ ~seed i], fanned out over
    {!Occamy_util.Domain_pool}. The first failing case is minimised with
    {!Shrink.minimise} under {!oracle} (the masking property is
    universally quantified over fault schedules, so re-derived trials on
    a shrunk case remain a sound witness).

    @raise Invalid_argument on a negative [count] or non-positive
    [minutes]. *)

val repro_command : int -> string
(** Self-contained replay command for a case seed. *)

val pp_report : Format.formatter -> report -> unit
