(* Per-layer tallies of one traced run: what each simulation did (cycles,
   fast-forward skips, stage work, lane-manager and memory counts from
   its [Metrics.t]) and where the simulator's own time went (its
   [Occamy_obs.Prof] stages). Tallies are filled on the calling domain
   after a pool map returns, so they need no locking. *)

module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Prof = Occamy_obs.Prof

(* What one finished simulation contributes. *)
type sim = {
  metrics : Metrics.t;
  cycles : int;
  skipped : int;
  jumps : int;
  work : (string * float) list;  (** [Sim.stage_work] *)
  minor_words : float;  (** allocated by [Sim.run] *)
  run_ns : int;  (** host time of [Sim.run] *)
  prof : (Prof.stage * int) list * int;
      (** per-stage sampled ns and the number of sampled cycles *)
}

let observe ~minor_words ~run_ns ~prof_t sim metrics =
  let prof =
    ( List.map (fun s -> (s.Prof.ss_stage, s.Prof.ss_ns)) (Prof.stats prof_t),
      Prof.sampled_cycles prof_t )
  in
  {
    metrics;
    cycles = metrics.Metrics.total_cycles;
    skipped = Sim.skipped_cycles sim;
    jumps = Sim.ff_jumps sim;
    work = Sim.stage_work sim;
    minor_words;
    run_ns;
    prof;
  }

type t = {
  mutable runs : int;
  mutable cycles : int;
  mutable skipped : int;
  mutable jumps : int;
  mutable minor_words : float;
  mutable run_ns : int;
  work : (string, float) Hashtbl.t;
  stage_ns : (Prof.stage, int) Hashtbl.t;
  mutable sampled_cycles : int;
  mutable replans : int;
  mutable reconfigs : int;
  mutable failed_vl : int;
  mutable rename_stall : int;
  mutable reconfig_blocked : int;
  mutable mem_accesses : int;
  mutable mem_bytes : float;
}

let create () =
  {
    runs = 0;
    cycles = 0;
    skipped = 0;
    jumps = 0;
    minor_words = 0.0;
    run_ns = 0;
    work = Hashtbl.create 8;
    stage_ns = Hashtbl.create 16;
    sampled_cycles = 0;
    replans = 0;
    reconfigs = 0;
    failed_vl = 0;
    rename_stall = 0;
    reconfig_blocked = 0;
    mem_accesses = 0;
    mem_bytes = 0.0;
  }

let add t (s : sim) =
  let m = s.metrics in
  let per_core f = Array.fold_left (fun acc c -> acc + f c) 0 m.Metrics.cores in
  t.runs <- t.runs + 1;
  t.cycles <- t.cycles + s.cycles;
  t.skipped <- t.skipped + s.skipped;
  t.jumps <- t.jumps + s.jumps;
  t.minor_words <- t.minor_words +. s.minor_words;
  t.run_ns <- t.run_ns + s.run_ns;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t.work k
        (v +. Option.value (Hashtbl.find_opt t.work k) ~default:0.0))
    s.work;
  let stages, sampled = s.prof in
  List.iter
    (fun (st, ns) ->
      Hashtbl.replace t.stage_ns st
        (ns + Option.value (Hashtbl.find_opt t.stage_ns st) ~default:0))
    stages;
  t.sampled_cycles <- t.sampled_cycles + sampled;
  t.replans <- t.replans + m.Metrics.replans;
  t.reconfigs <- t.reconfigs + per_core (fun c -> c.Metrics.reconfigs);
  t.failed_vl <- t.failed_vl + per_core (fun c -> c.Metrics.failed_vl_requests);
  t.rename_stall <-
    t.rename_stall + per_core (fun c -> c.Metrics.rename_stall_cycles);
  t.reconfig_blocked <-
    t.reconfig_blocked + per_core (fun c -> c.Metrics.reconfig_blocked_cycles);
  t.mem_accesses <- t.mem_accesses + Metrics.total_mem_accesses m;
  t.mem_bytes <- t.mem_bytes +. Metrics.total_mem_bytes m

let ratio a b = if b = 0.0 then 0.0 else a /. b
let work t k = Option.value (Hashtbl.find_opt t.work k) ~default:0.0

(* Stages the benchmark reports; [Trace_overhead] still counts towards
   the total the shares are taken of. *)
let reported_stages =
  Prof.
    [
      Dispatch;
      Lsu_retire;
      Rename;
      Frontend;
      Exe_apply;
      Replan;
      Ctx_switch;
      Ff_scan;
      Sample;
      Other;
    ]

(* The counts that identify the work done: equal on every machine, and
   between the untraced and traced passes over the same units. *)
let fingerprint (s : sim) = (s.cycles, s.skipped, s.jumps, s.work)

let metrics t =
  let f = float_of_int in
  let stepped = t.cycles - t.skipped in
  let total_stage_ns = Hashtbl.fold (fun _ ns acc -> acc + ns) t.stage_ns 0 in
  let stage st =
    let ns = f (Option.value (Hashtbl.find_opt t.stage_ns st) ~default:0) in
    let name = "sim.stage." ^ Prof.stage_name st in
    [
      (name ^ ".share", ratio ns (f total_stage_ns));
      (name ^ ".ns_per_cycle", ratio ns (f t.sampled_cycles));
    ]
  in
  [
    ("sim.runs", f t.runs);
    ("sim.cycles", f t.cycles);
    ("sim.stepped_cycles", f stepped);
    ("sim.skip_ratio", ratio (f t.skipped) (f t.cycles));
    ("sim.ff_jumps", f t.jumps);
    ("sim.ns_per_stepped_cycle", ratio (f t.run_ns) (f stepped));
    ("sim.minor_words_per_stepped_cycle", ratio t.minor_words (f stepped));
    ("sim.issue_checks", work t "exebu.issue_checks");
    ("sim.issues", work t "exebu.issues");
    ("sim.issue_yield", ratio (work t "exebu.issues") (work t "exebu.issue_checks"));
    ("sim.retire_calls", work t "lsu.retire_calls");
    ("sim.retired", work t "lsu.retired");
    ("sim.retire_yield", ratio (work t "lsu.retired") (work t "lsu.retire_calls"));
    ("lanemgr.replans", f t.replans);
    ("lanemgr.reconfigs", f t.reconfigs);
    ("lanemgr.failed_vl_requests", f t.failed_vl);
    ( "lanemgr.vl_grant_ratio",
      ratio (f t.reconfigs) (f (t.reconfigs + t.failed_vl)) );
    ("coproc.rename_stall_cycles", f t.rename_stall);
    ("coproc.reconfig_blocked_cycles", f t.reconfig_blocked);
    ("mem.accesses", f t.mem_accesses);
    ("mem.bytes", t.mem_bytes);
  ]
  @ List.concat_map stage reported_stages
