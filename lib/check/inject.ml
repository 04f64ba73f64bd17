(** Fault injection and the differential masking oracle. See the
    interface for the fault model and the TMR masking property. *)

module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Reference = Occamy_compiler.Reference
module Interp = Occamy_isa.Interp
module Program = Occamy_isa.Program
module Workload = Occamy_core.Workload
module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Trace = Occamy_obs.Trace
module Urng = Occamy_util.Rng
module Domain_pool = Occamy_util.Domain_pool

type fault = { f_op : int; f_lane : int; f_bit : int }

let pp_fault ppf f =
  Format.fprintf ppf "op %d lane %d bit %d" f.f_op f.f_lane f.f_bit

(* ------------------------------------------------------------------ *)
(* The fault model                                                     *)
(* ------------------------------------------------------------------ *)

(* Sphere of replication: register write-backs (ALU results, broadcasts)
   and load return data. Voter outputs and the store data path are
   outside it — the voter is assumed hardened and memory ECC-protected,
   the standard TMR boundary — and are excluded in BOTH modes so plain
   and TMR runs face the identical fault surface. *)
let eligible = function
  | Interp.Site_reg | Interp.Site_load -> true
  | Interp.Site_vote | Interp.Site_store -> false

(* Values are f32 lanes (the ISA's element type): flip one bit of the
   IEEE-754 single-precision encoding. Exponent flips may yield inf or
   NaN — realistic, and exactly what the poison discipline must mask. *)
let flip_f32 v bit =
  Int32.float_of_bits
    (Int32.logxor (Int32.bits_of_float v) (Int32.shift_left 1l bit))

let count_hook counter : Interp.fault_hook =
 fun ~site ~data:_ ~off:_ ~len:_ -> if eligible site then incr counter

(* Apply an explicit schedule: fault [f] fires on eligible opportunity
   [f.f_op], flipping bit [f.f_bit] of lane [f.f_lane mod len]. The
   applied list records each flip as actually landed (lane reduced),
   so a witness replays exactly. *)
let schedule_hook ~applied faults : Interp.fault_hook =
  let counter = ref 0 in
  fun ~site ~data ~off ~len ->
    if eligible site then begin
      let k = !counter in
      counter := k + 1;
      List.iter
        (fun f ->
          if f.f_op = k then begin
            let lane = f.f_lane mod len in
            data.(off + lane) <- flip_f32 data.(off + lane) f.f_bit;
            applied := { f with f_lane = lane } :: !applied
          end)
        faults
    end

(* ------------------------------------------------------------------ *)
(* Executing one workload under a hook                                 *)
(* ------------------------------------------------------------------ *)

let interp_fuel = 20_000_000

(* All fault runs use one fixed solo environment: the baseline and every
   trial must execute the identical dynamic instruction sequence, or
   opportunity indices would not line up between them. *)
let fault_env = Interp.solo_env ~max_granules:8

let exec ?fault_hook (wl : Workload.t) init_tbl =
  let interp = Interp.create ~env:fault_env ?fault_hook wl.Workload.program in
  Array.iter
    (fun d ->
      Interp.set_memory interp d.Program.arr_id
        (Array.sub (Diff.lookup init_tbl d.Program.arr_name) 0
           d.Program.arr_size))
    wl.Workload.program.Program.arrays;
  ignore (Interp.run ~fuel:interp_fuel interp);
  interp

(* Final memory of every declared array, as raw f64 bits: trials compare
   bit-identically against the fault-free baseline (same program, same
   schedule — only the flip differs), which needs no tolerance and
   treats a NaN as equal to itself. *)
let snapshot interp (program : Program.t) =
  Array.map
    (fun d ->
      Array.map Int64.bits_of_float (Interp.memory interp d.Program.arr_id))
    program.Program.arrays

let first_mismatch (program : Program.t) a b =
  let bad = ref None in
  Array.iteri
    (fun di xs ->
      if !bad = None then
        Array.iteri
          (fun i x ->
            if !bad = None && not (Int64.equal x b.(di).(i)) then
              bad :=
                Some
                  (Printf.sprintf "%s[%d]: %.9g instead of %.9g"
                     program.Program.arrays.(di).Program.arr_name i
                     (Int64.float_of_bits b.(di).(i))
                     (Int64.float_of_bits x)))
          xs)
    a;
  !bad

(* ------------------------------------------------------------------ *)
(* The masking oracle                                                  *)
(* ------------------------------------------------------------------ *)

type stats = {
  plain_opportunities : int;
  tmr_opportunities : int;
  tmr_trials : int;
  tmr_masked : int;
  plain_trials : int;
  plain_detected : int;
  plain_benign : int;
}

let zero_stats =
  {
    plain_opportunities = 0;
    tmr_opportunities = 0;
    tmr_trials = 0;
    tmr_masked = 0;
    plain_trials = 0;
    plain_detected = 0;
    plain_benign = 0;
  }

let add_stats a b =
  {
    plain_opportunities = a.plain_opportunities + b.plain_opportunities;
    tmr_opportunities = a.tmr_opportunities + b.tmr_opportunities;
    tmr_trials = a.tmr_trials + b.tmr_trials;
    tmr_masked = a.tmr_masked + b.tmr_masked;
    plain_trials = a.plain_trials + b.plain_trials;
    plain_detected = a.plain_detected + b.plain_detected;
    plain_benign = a.plain_benign + b.plain_benign;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "tmr %d/%d masked (%d opportunities), plain %d detected + %d benign of \
     %d (%d opportunities)"
    s.tmr_masked s.tmr_trials s.tmr_opportunities s.plain_detected
    s.plain_benign s.plain_trials s.plain_opportunities

(* TMR triples the live vector registers; stay well inside the 32-vreg
   file and the interpreter's fuel. *)
let gen_cfg =
  { Gen.default_cfg with Gen.max_stmts = 2; max_depth = 2; max_trip = 200 }

let default_trials = 8

let failf stage fmt =
  Format.kasprintf (fun message -> Error { Diff.stage; message }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Trial [i]'s fault, hashed from the case seed on streams the rest of
   the pipeline never draws ([mode_stream] separates plain from TMR):
   any opportunity, any lane (reduced modulo the transfer length when
   applied), any of the 32 bits. *)
let trial_fault ~seed ~mode_stream i ~n_ops =
  {
    f_op = Urng.mix3 ~seed ~stream:mode_stream (3 * i) mod n_ops;
    f_lane = Urng.mix3 ~seed ~stream:mode_stream ((3 * i) + 1) land 0xFFFF;
    f_bit = Urng.mix3 ~seed ~stream:mode_stream ((3 * i) + 2) mod 32;
  }

let compile ~options ~tmr loops =
  match
    Codegen.compile_workload
      ~options:{ options with Codegen.tmr }
      ~name:(if tmr then "inject-tmr" else "inject-plain")
      ~kind:Workload.Mixed loops
  with
  | wl -> Ok wl
  | exception exn ->
    failf
      (if tmr then "inject/compile-tmr" else "inject/compile-plain")
      "%s" (Printexc.to_string exn)

(* One mode's single-fault campaign: count opportunities, snapshot the
   fault-free baseline, then run [trials] independent single-flip
   executions and classify each against the baseline. *)
let run_trials ~wl ~init ~seed ~mode_stream ~trials ~on_trial =
  let n_ops = ref 0 in
  let base =
    snapshot (exec ~fault_hook:(count_hook n_ops) wl init) wl.Workload.program
  in
  let rec go i acc =
    if i >= trials || !n_ops = 0 then Ok acc
    else
      let f = trial_fault ~seed ~mode_stream i ~n_ops:!n_ops in
      let applied = ref [] in
      match exec ~fault_hook:(schedule_hook ~applied [ f ]) wl init with
      | exception Interp.Fault msg ->
        failf "inject/trial" "interpreter fault under %s: %s"
          (Format.asprintf "%a" pp_fault f)
          msg
      | interp -> (
        match !applied with
        | [] ->
          failf "inject/trial"
            "fault (%s) never fired (%d opportunities counted)"
            (Format.asprintf "%a" pp_fault f)
            !n_ops
        | landed :: _ -> (
          let diverged =
            first_mismatch wl.Workload.program
              (snapshot interp wl.Workload.program)
              base
          in
          match on_trial ~fault:landed ~diverged acc with
          | Ok acc -> go (i + 1) acc
          | Error _ as e -> e))
  in
  let* acc = go 0 (0, 0) in
  Ok (!n_ops, acc)

(* The TMR binary on the timing simulator: fuzz cases never set
   [Codegen.tmr], so this is where voters in the issue stream meet both
   tick loops. The loops must stay bit-identical, and observed traffic
   must match the TMR-aware Equation-5 prediction (loads issued once per
   replica). *)
let run_sim_tmr ~expected_bytes ~arch wl =
  let cfg = Config.default in
  let workloads = List.init cfg.Config.cores (fun _ -> wl) in
  let run fast_forward =
    let trace =
      Trace.for_sim ~capacity:(1 lsl 16) ~cores:cfg.Config.cores ()
    in
    let m =
      Sim.simulate ~cfg:{ cfg with Config.fast_forward } ~trace ~arch
        workloads
    in
    (m, trace)
  in
  let stage = "inject/sim/" ^ Arch.name arch in
  match
    let m_naive, trace_naive = run false in
    let m, trace = run true in
    let* () =
      match Invariant.check_equivalent m_naive m with
      | Ok () -> Ok ()
      | Error msg -> failf stage "fast-forward diverged on TMR: %s" msg
    in
    let* () =
      match Invariant.check_same_trace trace_naive trace with
      | Ok () -> Ok ()
      | Error msg -> failf stage "fast-forward trace diverged on TMR: %s" msg
    in
    let observed = Metrics.total_mem_bytes m in
    let want = float_of_int cfg.Config.cores *. expected_bytes in
    if Float.abs (observed -. want) > 0.5 then
      failf stage
        "observed %.0f bytes of TMR vector traffic, Equation-5 predicts %.0f"
        observed want
    else Ok ()
  with
  | r -> r
  | exception Sim.Simulation_error msg -> failf stage "simulation error: %s" msg

(* The whole oracle on one case. *)
let check ?(trials = default_trials) (c : Diff.case) =
  let* plain_wl = compile ~options:c.options ~tmr:false c.Diff.loops in
  let* tmr_wl = compile ~options:c.options ~tmr:true c.Diff.loops in
  let init =
    Diff.fresh_image ~seed:c.Diff.sched_seed
      ~extra_plan:(Codegen.array_plan c.Diff.loops)
      c.Diff.loops
  in
  let want = Diff.copy_image init in
  match Reference.run ~mem:(Diff.lookup want) c.Diff.loops with
  | exception exn -> failf "inject/reference" "%s" (Printexc.to_string exn)
  | () ->
    (* Fault-free sanity: both lowerings still compute the reference —
       in particular the TMR voters are semantically transparent. *)
    let* () =
      Diff.run_interp ~stage:"inject/plain-ref" ~eps:Diff.eps ~env:fault_env
        plain_wl want init
    in
    let* () =
      Diff.run_interp ~stage:"inject/tmr-ref" ~eps:Diff.eps ~env:fault_env
        tmr_wl want init
    in
    let seed = c.Diff.case_seed in
    (* TMR: every single-lane flip must be masked — divergence from the
       fault-free baseline is silent corruption, the property violation
       this whole layer exists to catch. *)
    let* tmr_opportunities, (tmr_masked, _) =
      run_trials ~wl:tmr_wl ~init ~seed ~mode_stream:101 ~trials
        ~on_trial:(fun ~fault ~diverged (masked, other) ->
          match diverged with
          | None -> Ok (masked + 1, other)
          | Some where ->
            failf "inject/tmr-mask"
              "silent corruption: single fault (%s) escaped TMR at %s"
              (Format.asprintf "%a" pp_fault fault)
              where)
    in
    (* Plain: a flip either lands in the output (detected — the
       differential oracle would flag the run) or dies benignly
       (overwritten, or absorbed by min/max/multiply-by-zero). Both are
       legitimate; the campaign-level report checks that detection
       actually happens across cases. *)
    let* plain_opportunities, (plain_detected, plain_benign) =
      run_trials ~wl:plain_wl ~init ~seed ~mode_stream:202 ~trials
        ~on_trial:(fun ~fault:_ ~diverged (det, ben) ->
          Ok
            (match diverged with
            | Some _ -> (det + 1, ben)
            | None -> (det, ben + 1)))
    in
    let tmr_trials = if tmr_opportunities = 0 then 0 else trials in
    let plain_trials = if plain_opportunities = 0 then 0 else trials in
    (* Timing side, all four architectures, on the TMR binary. *)
    let tmr_bytes =
      Diff.predicted_bytes
        ~options:{ c.Diff.options with Codegen.tmr = true }
        c.Diff.loops
    in
    let* () =
      List.fold_left
        (fun acc arch ->
          let* () = acc in
          run_sim_tmr ~expected_bytes:tmr_bytes ~arch tmr_wl)
        (Ok ()) Arch.all
    in
    Ok
      {
        plain_opportunities;
        tmr_opportunities;
        tmr_trials;
        tmr_masked;
        plain_trials;
        plain_detected;
        plain_benign;
      }

let case_of_seed case_seed = Diff.case_of_seed ~cfg:gen_cfg case_seed

let check_case ?trials case_seed = check ?trials (case_of_seed case_seed)

(* Shrink-compatible view: success is (), stats dropped. *)
let oracle ?trials c = Result.map (fun _ -> ()) (check ?trials c)

(* ------------------------------------------------------------------ *)
(* Fault-schedule minimisation                                         *)
(* ------------------------------------------------------------------ *)

(* Reduce a multi-fault witness against an arbitrary failure predicate
   (e.g. "this TMR run still diverges from its baseline"): drop flips
   until every survivor is necessary — single-fault whenever the
   violation needs only one. *)
let minimise_faults ?max_tries ~still_fails faults =
  Shrink.minimise_list ?max_tries ~keep:still_fails faults

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

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
  totals : stats;
  counterexample : counterexample option;
}

let repro_command case_seed =
  Printf.sprintf "occamy-sim fuzz --case %d --inject-faults" case_seed

let run ?(trials = default_trials) ?minutes ?(on_batch = fun ~done_:_ -> ())
    ?oversubscribe ~seed ~count ~jobs () =
  let oversubscribe =
    match oversubscribe with
    | Some b -> b
    | None -> Domain_pool.oversubscribe_from_env ()
  in
  if count < 0 then
    invalid_arg (Printf.sprintf "Inject.run: negative count %d" count);
  (match minutes with
  | Some m when m <= 0.0 ->
    invalid_arg (Printf.sprintf "Inject.run: minutes %g (must be > 0)" m)
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun m -> t0 +. (m *. 60.0)) minutes in
  let expired () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () > d
  in
  let done_ = ref 0 in
  let totals = ref zero_stats in
  let found = ref None in
  let continue () =
    !found = None
    && (match deadline with Some _ -> not (expired ()) | None -> !done_ < count)
  in
  let batch ~oversubscribe jobs =
    let eff =
      Domain_pool.effective_workers ~oversubscribe
        ~cores:(Domain.recommended_domain_count ())
        ~jobs ~tasks:jobs
    in
    max 8 (eff * 4)
  in
  while continue () do
    let n =
      match deadline with
      | Some _ -> batch ~oversubscribe jobs
      | None -> min (batch ~oversubscribe jobs) (count - !done_)
    in
    let indices = List.init n (fun k -> !done_ + k) in
    let results =
      Domain_pool.map ~jobs ~oversubscribe
        (fun i ->
          let cs = Rng.case_seed ~seed i in
          (i, cs, check_case ~trials cs))
        indices
    in
    done_ := !done_ + n;
    List.iter
      (fun (_, _, r) ->
        match r with Ok s -> totals := add_stats !totals s | Error _ -> ())
      results;
    (match List.find_opt (fun (_, _, r) -> Result.is_error r) results with
    | Some (i, cs, Error _) ->
      (* Re-establish on the calling domain, then minimise the loops
         under the masking oracle itself. *)
      let case = case_of_seed cs in
      let f0 =
        match oracle ~trials case with
        | Error f -> f
        | Ok () ->
          { Diff.stage = "inject/replay"; message = "failure did not reproduce" }
      in
      let s = Shrink.minimise ~oracle:(oracle ~trials) case f0 in
      found :=
        Some
          {
            cx_index = i;
            cx_seed = cs;
            cx_failure = s.Shrink.failure;
            cx_original = case;
            cx_shrunk = s.Shrink.case;
            cx_steps = s.Shrink.steps;
          }
    | _ -> ());
    on_batch ~done_:!done_
  done;
  {
    root_seed = seed;
    cases_run = !done_;
    elapsed = Unix.gettimeofday () -. t0;
    totals = !totals;
    counterexample = !found;
  }

let pp_report ppf r =
  match r.counterexample with
  | None ->
    Format.fprintf ppf
      "inject-fuzz: %d cases, seed %d, %.1fs — masking holds (%a)"
      r.cases_run r.root_seed r.elapsed pp_stats r.totals
  | Some cx ->
    Format.fprintf ppf
      "@[<v>inject-fuzz: FAILED at case %d of %d (seed %d, %.1fs)@,%a@,shrunk \
       from size %d to %d in %d steps:@,%a@,repro: %s@]"
      cx.cx_index r.cases_run r.root_seed r.elapsed Diff.pp_failure
      cx.cx_failure (Shrink.size cx.cx_original) (Shrink.size cx.cx_shrunk)
      cx.cx_steps Diff.pp_case cx.cx_shrunk (repro_command cx.cx_seed)
