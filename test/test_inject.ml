(* Fault-injection layer tests: the pure trial-schedule hash, the
   majority voter, hook determinism and observational purity, TMR
   masking / plain detection on a hand-built workload, the TMR binary on
   both timing-simulator tick loops, fault-schedule shrinking, and the
   fault-injection regression corpus. *)

module Urng = Occamy_util.Rng
module Vop = Occamy_isa.Vop
module Interp = Occamy_isa.Interp
module Program = Occamy_isa.Program
module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Analysis = Occamy_compiler.Analysis
module Workload = Occamy_core.Workload
module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Trace = Occamy_obs.Trace
module Diff = Occamy_check.Diff
module Inject = Occamy_check.Inject
module Shrink = Occamy_check.Shrink
module Corpus = Occamy_check.Corpus
module Invariant = Occamy_check.Invariant
module Level = Occamy_mem.Level

open Loop_ir

(* ---------------- the pure trial-schedule hash --------------------- *)

let test_mix3_pure () =
  for i = 0 to 63 do
    Helpers.check_bool "mix3 non-negative" true
      (Urng.mix3 ~seed:5 ~stream:9 i >= 0);
    Helpers.check_int "mix3 deterministic"
      (Urng.mix3 ~seed:5 ~stream:9 i)
      (Urng.mix3 ~seed:5 ~stream:9 i)
  done;
  Helpers.check_bool "mix3 streams differ" true
    (List.init 64 (Urng.mix3 ~seed:5 ~stream:0)
    <> List.init 64 (Urng.mix3 ~seed:5 ~stream:1))

(* ---------------- the majority voter -------------------------------- *)

let test_vote_majority () =
  (* All 2-of-3 agreement patterns recover the majority value. *)
  Helpers.check_float "a a b" 1.5 (Vop.vote 1.5 1.5 9.0);
  Helpers.check_float "a b a" 1.5 (Vop.vote 1.5 9.0 1.5);
  Helpers.check_float "b a a" 1.5 (Vop.vote 9.0 1.5 1.5);
  Helpers.check_float "a a a" 1.5 (Vop.vote 1.5 1.5 1.5);
  (* No majority: documented fallback to the first operand. *)
  Helpers.check_float "all distinct" 1.0 (Vop.vote 1.0 2.0 3.0)

let test_vote_nan_and_zero () =
  (* Bit-compare semantics: a replicated NaN poison votes as itself
     (Float.equal, not (=)), so TMR never "repairs" poison lanes. *)
  Helpers.check_bool "nan nan x -> nan" true
    (Float.is_nan (Vop.vote Float.nan Float.nan 1.0));
  Helpers.check_bool "x nan nan -> nan" true
    (Float.is_nan (Vop.vote 1.0 Float.nan Float.nan));
  Helpers.check_bool "nan x nan -> nan" true
    (Float.is_nan (Vop.vote Float.nan 1.0 Float.nan));
  (* Float.equal (compare-based) identifies -0. with 0., so the zeros
     all agree and the first operand's representation is kept — the
     voter never invents a value outside its inputs. *)
  Helpers.check_bool "-0 0 0 -> zero" true (Vop.vote (-0.0) 0.0 0.0 = 0.0);
  Helpers.check_bool "-0 0 0 keeps first representation" true
    (Int64.equal
       (Int64.bits_of_float (Vop.vote (-0.0) 0.0 0.0))
       (Int64.bits_of_float (-0.0)))

let test_flip_f32_involution () =
  List.iter
    (fun v ->
      let v32 = Int32.float_of_bits (Int32.bits_of_float v) in
      for bit = 0 to 31 do
        let flipped = Inject.flip_f32 v32 bit in
        Helpers.check_bool "flip changes the f32 encoding" false
          (Int32.equal (Int32.bits_of_float flipped) (Int32.bits_of_float v32));
        Helpers.check_bool "flip is an involution" true
          (Int32.equal
             (Int32.bits_of_float (Inject.flip_f32 flipped bit))
             (Int32.bits_of_float v32))
      done)
    [ 0.0; 1.0; -1.75; 3.14159; 1e-3 ]

(* ---------------- a hand-built workload ----------------------------- *)

(* One elementwise phase, forced vector (no multi-versioning) so the
   eligible-opportunity stream is stable: per chunk, [reps] loads of a,
   [reps] loads of b, [reps] adds — votes and stores are outside the
   sphere of replication. *)
let add_loops =
  [
    loop ~name:"add_phase" ~trip_count:64 ~level:Level.L2
      [ store "o" ("a".%[0] +: "b".%[0]) ];
  ]

let options = { Codegen.default_options with Codegen.multiversion = false }

let compile_add ~tmr =
  Codegen.compile_workload
    ~options:{ options with Codegen.tmr }
    ~name:(if tmr then "t-add-tmr" else "t-add-plain")
    ~kind:Workload.Mixed add_loops

let add_init () =
  Diff.fresh_image ~seed:97
    ~extra_plan:(Codegen.array_plan add_loops)
    add_loops

let count_opportunities wl init =
  let n = ref 0 in
  ignore (Inject.exec ~fault_hook:(Inject.count_hook n) wl init);
  !n

(* ---------------- hooks: determinism and observational purity ------- *)

let test_hooks_observational () =
  let wl = compile_add ~tmr:true in
  let init = add_init () in
  let n1 = count_opportunities wl init in
  let n2 = count_opportunities wl init in
  Helpers.check_int "opportunity count deterministic" n1 n2;
  Helpers.check_bool "TMR workload has opportunities" true (n1 > 0);
  let plain = count_opportunities (compile_add ~tmr:false) init in
  Helpers.check_bool "TMR sees more opportunities than plain" true (n1 > plain);
  (* A counting hook must not perturb values. *)
  let base =
    Inject.snapshot (Inject.exec wl init) wl.Workload.program
  in
  let counted =
    Inject.snapshot
      (Inject.exec ~fault_hook:(Inject.count_hook (ref 0)) wl init)
      wl.Workload.program
  in
  Helpers.check_bool "count_hook is observational" true
    (Inject.first_mismatch wl.Workload.program base counted = None)

let test_schedule_hook_deterministic () =
  let wl = compile_add ~tmr:false in
  let init = add_init () in
  let faults = [ { Inject.f_op = 0; f_lane = 2; f_bit = 20 } ] in
  let run () =
    let applied = ref [] in
    let s =
      Inject.snapshot
        (Inject.exec ~fault_hook:(Inject.schedule_hook ~applied faults) wl init)
        wl.Workload.program
    in
    (s, !applied)
  in
  let s1, a1 = run () in
  let s2, a2 = run () in
  Helpers.check_bool "same schedule, same corrupted memory" true
    (Inject.first_mismatch wl.Workload.program s1 s2 = None);
  Helpers.check_bool "applied faults recorded identically" true (a1 = a2);
  Helpers.check_int "exactly one flip landed" 1 (List.length a1)

(* ---------------- masking and detection ----------------------------- *)

let test_tmr_masks_single_faults () =
  let wl = compile_add ~tmr:true in
  let init = add_init () in
  let n_ops = count_opportunities wl init in
  let base = Inject.snapshot (Inject.exec wl init) wl.Workload.program in
  List.iter
    (fun (op, bit) ->
      let f = { Inject.f_op = op mod n_ops; f_lane = 0; f_bit = bit } in
      let applied = ref [] in
      let s =
        Inject.snapshot
          (Inject.exec ~fault_hook:(Inject.schedule_hook ~applied [ f ]) wl
             init)
          wl.Workload.program
      in
      Helpers.check_bool "fault landed" true (!applied <> []);
      match Inject.first_mismatch wl.Workload.program s base with
      | None -> ()
      | Some where ->
        Alcotest.failf "single fault op %d bit %d escaped TMR at %s"
          f.Inject.f_op bit where)
    [ (0, 20); (1, 3); (2, 30); (3, 20); (4, 0); (5, 22); (6, 20); (7, 31) ]

let test_plain_fault_detected () =
  let wl = compile_add ~tmr:false in
  let init = add_init () in
  let base = Inject.snapshot (Inject.exec wl init) wl.Workload.program in
  let applied = ref [] in
  let s =
    Inject.snapshot
      (Inject.exec
         ~fault_hook:
           (Inject.schedule_hook ~applied
              [ { Inject.f_op = 0; f_lane = 0; f_bit = 20 } ])
         wl init)
      wl.Workload.program
  in
  Helpers.check_bool "fault landed" true (!applied <> []);
  Helpers.check_bool "plain lowering lets the flip reach the output" true
    (Inject.first_mismatch wl.Workload.program s base <> None)

let test_analysis_tmr_accounting () =
  let l = List.hd add_loops in
  let plain = Analysis.analyse l in
  let tmr = Analysis.analyse ~tmr:true l in
  Helpers.check_int "loads tripled" (3 * plain.Analysis.load_instrs)
    tmr.Analysis.load_instrs;
  Helpers.check_int "stores stay single" plain.Analysis.store_instrs
    tmr.Analysis.store_instrs;
  Helpers.check_int "compute tripled plus one vote per store"
    ((3 * plain.Analysis.comp_instrs) + plain.Analysis.store_instrs)
    tmr.Analysis.comp_instrs;
  Helpers.check_int "footprint unchanged" plain.Analysis.footprint_bytes
    tmr.Analysis.footprint_bytes

(* ---------------- the oracle end-to-end ----------------------------- *)

let test_check_case_masks () =
  List.iter
    (fun seed ->
      match Inject.check_case ~trials:4 seed with
      | Error f ->
        Alcotest.failf "seed %d: %s: %s" seed f.Diff.stage f.Diff.message
      | Ok stats ->
        Helpers.check_int
          (Printf.sprintf "seed %d fully masked" seed)
          stats.Inject.tmr_trials stats.Inject.tmr_masked)
    [ 0; 3 ]

let test_corpus_inject_replays () =
  let names = List.map (fun e -> e.Corpus.i_name) Corpus.inject_entries in
  Helpers.check_bool "corpus names unique" true
    (List.sort_uniq compare names = List.sort compare names);
  Helpers.check_bool "both expectations pinned" true
    (List.exists (fun e -> e.Corpus.i_expect = Corpus.Masked_by_tmr)
       Corpus.inject_entries
    && List.exists (fun e -> e.Corpus.i_expect = Corpus.Detected_by_plain)
         Corpus.inject_entries);
  List.iter
    (fun e ->
      match Corpus.replay_inject e with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "inject corpus %s (seed %d): %s: %s" e.Corpus.i_name
          e.Corpus.i_seed f.Diff.stage f.Diff.message)
    Corpus.inject_entries

(* ---------------- the timing simulator ------------------------------ *)

let sim_loops =
  [
    loop ~name:"sim_phase" ~trip_count:1024 ~level:Level.L2
      [ store "so" (("sa".%[0] *: "sb".%[0]) +: "sc".%[0]) ];
  ]

(* Fuzz cases never set [Codegen.tmr], so this is where a TMR binary
   (voters in the issue stream) meets both tick loops. *)
let test_sim_tmr_both_loops () =
  let tmr_options = { options with Codegen.tmr = true } in
  let wl =
    Codegen.compile_workload ~options:tmr_options ~name:"t-inject-sim-tmr"
      ~kind:Workload.Mixed sim_loops
  in
  let cfg = Config.default in
  let want =
    float_of_int cfg.Config.cores
    *. Diff.predicted_bytes ~options:tmr_options sim_loops
  in
  List.iter
    (fun arch ->
      let run fast_forward =
        let trace =
          Trace.for_sim ~capacity:(1 lsl 16) ~cores:cfg.Config.cores ()
        in
        let wls = List.init cfg.Config.cores (fun _ -> wl) in
        (Sim.simulate ~cfg:{ cfg with Config.fast_forward } ~trace ~arch wls,
         trace)
      in
      let m_nv, t_nv = run false in
      let m_ff, t_ff = run true in
      (match Invariant.check_equivalent m_nv m_ff with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: loops diverged: %s" (Arch.name arch) msg);
      (match Invariant.check_same_trace t_nv t_ff with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: traces diverged: %s" (Arch.name arch) msg);
      Helpers.check_float
        (Arch.name arch ^ ": traffic = TMR-aware Equation 5")
        want (Metrics.total_mem_bytes m_ff))
    Arch.all

(* ---------------- shrinking fault schedules ------------------------- *)

let test_minimise_list_greedy () =
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  Helpers.check_bool "single necessary element" true
    (Shrink.minimise_list ~keep:(fun ys -> List.mem 4 ys) xs = [ 4 ]);
  Helpers.check_bool "pair retained in order" true
    (Shrink.minimise_list
       ~keep:(fun ys -> List.mem 2 ys && List.mem 5 ys)
       xs
    = [ 2; 5 ]);
  Helpers.check_bool "vacuous predicate shrinks to empty" true
    (Shrink.minimise_list ~keep:(fun _ -> true) xs = []);
  Helpers.check_bool "unsatisfiable keep returns original" true
    (Shrink.minimise_list ~keep:(fun ys -> List.length ys >= 6) xs = xs)

let test_minimise_faults_two_fault_core () =
  (* A single fault is always masked by TMR; two identical flips on two
     replicas of the same load defeat the vote. Shrinking a 3-fault
     witness must land on a still-failing schedule in which every
     surviving fault is individually necessary — i.e. a genuine
     multi-fault core, not a single flip. *)
  let wl = compile_add ~tmr:true in
  let init = add_init () in
  (* Locate the first two load opportunities: consecutive replicas of
     the same chunk's first source. *)
  let sites = ref [] in
  let log_hook ~site ~data:_ ~off:_ ~len:_ =
    if Inject.eligible site then sites := site :: !sites
  in
  ignore (Inject.exec ~fault_hook:log_hook wl init);
  let sites = Array.of_list (List.rev !sites) in
  Helpers.check_bool "first two opportunities are load replicas" true
    (Array.length sites > 2
    && sites.(0) = Interp.Site_load
    && sites.(1) = Interp.Site_load);
  let base = Inject.snapshot (Inject.exec wl init) wl.Workload.program in
  let still_fails faults =
    let s =
      Inject.snapshot
        (Inject.exec ~fault_hook:(Inject.schedule_hook ~applied:(ref []) faults)
           wl init)
        wl.Workload.program
    in
    Inject.first_mismatch wl.Workload.program s base <> None
  in
  let pair_a = { Inject.f_op = 0; f_lane = 0; f_bit = 20 } in
  let pair_b = { Inject.f_op = 1; f_lane = 0; f_bit = 20 } in
  let decoy = { Inject.f_op = 5; f_lane = 0; f_bit = 19 } in
  let witness = [ pair_a; pair_b; decoy ] in
  Helpers.check_bool "3-fault witness defeats the vote" true
    (still_fails witness);
  Helpers.check_bool "each fault alone is masked" true
    (List.for_all (fun f -> not (still_fails [ f ])) witness);
  let core = Inject.minimise_faults ~still_fails witness in
  Helpers.check_bool "minimised schedule still fails" true (still_fails core);
  Helpers.check_int "a two-fault core" 2 (List.length core);
  List.iter
    (fun f ->
      Helpers.check_bool "every survivor necessary" false
        (still_fails (List.filter (fun g -> g <> f) core)))
    core

let suites =
  [
    ( "inject.stream",
      [
        Alcotest.test_case "mix3 pure" `Quick test_mix3_pure;
      ] );
    ( "inject.voter",
      [
        Alcotest.test_case "majority patterns" `Quick test_vote_majority;
        Alcotest.test_case "nan and signed zero" `Quick test_vote_nan_and_zero;
        Alcotest.test_case "flip_f32 involution" `Quick
          test_flip_f32_involution;
      ] );
    ( "inject.hooks",
      [
        Alcotest.test_case "hooks observational" `Quick
          test_hooks_observational;
        Alcotest.test_case "schedule deterministic" `Quick
          test_schedule_hook_deterministic;
      ] );
    ( "inject.tmr",
      [
        Alcotest.test_case "single faults masked" `Quick
          test_tmr_masks_single_faults;
        Alcotest.test_case "plain fault detected" `Quick
          test_plain_fault_detected;
        Alcotest.test_case "analysis accounting" `Quick
          test_analysis_tmr_accounting;
        Alcotest.test_case "oracle on fresh seeds" `Slow test_check_case_masks;
        Alcotest.test_case "corpus replay" `Slow test_corpus_inject_replays;
      ] );
    ( "inject.sim",
      [
        Alcotest.test_case "TMR binary on both loops" `Quick
          test_sim_tmr_both_loops;
      ] );
    ( "inject.shrink",
      [
        Alcotest.test_case "minimise_list greedy" `Quick
          test_minimise_list_greedy;
        Alcotest.test_case "two-fault core" `Quick
          test_minimise_faults_two_fault_core;
      ] );
  ]
