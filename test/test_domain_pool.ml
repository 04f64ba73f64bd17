(* Tests of the Domain-based parallel map layer: the contract is that
   parallelism is invisible — same outputs, same order, same exceptions
   as List.map — whatever the worker count. *)

module Dp = Occamy_util.Domain_pool

let test_empty () =
  Helpers.check_bool "empty list" true (Dp.map ~jobs:4 (fun x -> x + 1) [] = []);
  Helpers.check_bool "empty array" true
    (Dp.map_array ~jobs:4 (fun x -> x + 1) [||] = [||])

let test_jobs_exceed_tasks () =
  (* More workers than tasks must still produce every result, in order. *)
  Helpers.check_bool "8 jobs, 3 tasks" true
    (Dp.map ~jobs:8 (fun x -> x * x) [ 1; 2; 3 ] = [ 1; 4; 9 ])

let test_jobs1_sequential () =
  (* jobs = 1 bypasses domain spawning entirely: every task runs on the
     calling domain. *)
  let self = Domain.self () in
  let doms = Dp.map ~jobs:1 (fun _ -> Domain.self ()) (List.init 16 Fun.id) in
  Helpers.check_bool "all on calling domain" true
    (List.for_all (fun d -> d = self) doms)

let test_order_determinism () =
  let input = List.init 100 Fun.id in
  let expected = List.map (fun i -> (7 * i) + 3) input in
  for _ = 1 to 5 do
    Helpers.check_bool "jobs=4 order matches input order" true
      (Dp.map ~jobs:4 (fun i -> (7 * i) + 3) input = expected)
  done

let test_runs_each_task_once () =
  let count = Atomic.make 0 in
  let out =
    Dp.map ~jobs:4
      (fun i ->
        Atomic.incr count;
        i)
      (List.init 37 Fun.id)
  in
  Helpers.check_int "every result present" 37 (List.length out);
  Helpers.check_int "f ran once per task" 37 (Atomic.get count)

let test_exception_propagation () =
  (* A worker exception surfaces on the calling domain after the join;
     with several failures the lowest input index wins deterministically. *)
  let f i =
    if i = 13 then failwith "boom13"
    else if i = 57 then failwith "boom57"
    else i
  in
  (match Dp.map ~jobs:4 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected a worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-index error wins" "boom13" msg);
  match Dp.map ~jobs:1 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected the sequential path to raise too"
  | exception Failure msg ->
    Alcotest.(check string) "sequential path same error" "boom13" msg

let test_invalid_jobs () =
  match Dp.map ~jobs:0 Fun.id [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "jobs=0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_recommended_jobs () =
  let j = Dp.recommended_jobs () in
  Helpers.check_bool "recommended >= 1" true (j >= 1);
  Helpers.check_bool "recommended capped" true (j <= 16);
  Helpers.check_int "cap applies" 1 (Dp.recommended_jobs ~cap:1 ())

(* A private variable keeps these tests independent of any OCCAMY_JOBS
   in the surrounding environment. *)
let test_jobs_from_env () =
  let var = "OCCAMY_TEST_JOBS" in
  let warnings = ref [] in
  let resolve v =
    Unix.putenv var v;
    warnings := [];
    Dp.jobs_from_env ~var ~on_warning:(fun m -> warnings := m :: !warnings) ()
  in
  let recommended = Dp.recommended_jobs () in
  Helpers.check_int "valid value used" 3 (resolve "3");
  Helpers.check_bool "valid value: no warning" true (!warnings = []);
  Helpers.check_int "empty falls back" recommended (resolve "");
  Helpers.check_bool "empty: silent" true (!warnings = []);
  (* A set-but-invalid value must fall back *loudly*, naming the
     variable and the offending value. *)
  List.iter
    (fun bad ->
      Helpers.check_int
        (Printf.sprintf "%S falls back" bad)
        recommended (resolve bad);
      match !warnings with
      | [ msg ] ->
        Helpers.check_bool
          (Printf.sprintf "warning for %S names the variable" bad)
          true
          (Helpers.contains msg var && Helpers.contains msg bad)
      | ws ->
        Alcotest.failf "%S: expected exactly one warning, got %d" bad
          (List.length ws))
    [ "abc"; "0"; "-2"; "2.5" ]

let test_effective_workers () =
  let eff = Dp.effective_workers in
  Helpers.check_int "capped at cores" 4
    (eff ~oversubscribe:false ~cores:4 ~jobs:16 ~tasks:100);
  Helpers.check_int "capped at tasks" 3
    (eff ~oversubscribe:false ~cores:8 ~jobs:16 ~tasks:3);
  Helpers.check_int "capped at jobs" 2
    (eff ~oversubscribe:false ~cores:8 ~jobs:2 ~tasks:100);
  Helpers.check_int "oversubscribe lifts the core cap" 16
    (eff ~oversubscribe:true ~cores:4 ~jobs:16 ~tasks:100);
  Helpers.check_int "oversubscribe still capped at tasks" 5
    (eff ~oversubscribe:true ~cores:4 ~jobs:16 ~tasks:5);
  Helpers.check_int "floor of 1" 1
    (eff ~oversubscribe:false ~cores:0 ~jobs:4 ~tasks:100);
  Helpers.check_int "zero tasks floors at 1" 1
    (eff ~oversubscribe:false ~cores:8 ~jobs:4 ~tasks:0)

let test_oversubscribed_map () =
  (* Forcing more workers than this host has cores must change nothing
     about the results, and the stats must report the forced width. *)
  let input = List.init 50 Fun.id in
  let expected = List.map (fun i -> (3 * i) - 1) input in
  let seen = ref None in
  let out =
    Dp.map ~jobs:4 ~oversubscribe:true
      ~stats:(fun s -> seen := Some s)
      (fun i -> (3 * i) - 1)
      input
  in
  Helpers.check_bool "results identical" true (out = expected);
  match !seen with
  | None -> Alcotest.fail "stats callback did not fire"
  | Some s ->
    Helpers.check_int "forced worker count" 4 s.Dp.st_workers;
    Helpers.check_int "every task accounted" 50
      (Array.fold_left
         (fun acc w -> acc + w.Occamy_util.Work_steal.ws_tasks)
         0 s.Dp.st_by_worker)

let test_totals_accumulate () =
  Dp.reset_totals ();
  ignore (Dp.map ~jobs:2 ~oversubscribe:true (fun x -> x) (List.init 10 Fun.id));
  ignore (Dp.map ~jobs:1 (fun x -> x) (List.init 5 Fun.id));
  let t = Dp.totals () in
  Helpers.check_int "tasks summed" 15 t.Dp.t_tasks;
  Helpers.check_int "max workers" 2 t.Dp.t_max_workers;
  Helpers.check_bool "pool persists across maps" true (Dp.pool_size () >= 1);
  Dp.reset_totals ();
  Helpers.check_int "reset" 0 (Dp.totals ()).Dp.t_tasks

let suites =
  [
    ( "domain_pool",
      [
        Alcotest.test_case "empty input" `Quick test_empty;
        Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
        Alcotest.test_case "jobs=1 sequential" `Quick test_jobs1_sequential;
        Alcotest.test_case "order determinism" `Quick test_order_determinism;
        Alcotest.test_case "runs once per task" `Quick test_runs_each_task_once;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagation;
        Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
        Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
        Alcotest.test_case "jobs from env" `Quick test_jobs_from_env;
        Alcotest.test_case "effective workers" `Quick test_effective_workers;
        Alcotest.test_case "oversubscribed map" `Quick test_oversubscribed_map;
        Alcotest.test_case "totals accumulate" `Quick test_totals_accumulate;
      ] );
  ]
