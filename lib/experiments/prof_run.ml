(* Self-profiled simulator runs: drive a scenario with the stage
   profiler enabled and print where the simulator's own host time goes
   — the `bench profile` section and `occamy-sim ... --profile`. *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Metrics = Occamy_core.Metrics
module Prof = Occamy_obs.Prof
module Table = Occamy_util.Table

type report = {
  rp_arch : Arch.t;
  rp_prof : Prof.t;
  rp_metrics : Metrics.t;
  rp_seconds : float;
  rp_work : (string * float) list;
}

let profile ?cfg ?context_switches ?sample_every ~arch wls =
  let prof = Prof.create ?sample_every () in
  let t = Sim.create ?cfg ?context_switches ~prof ~arch wls in
  let m, seconds = Perf.time (fun () -> Sim.run t) in
  {
    rp_arch = arch;
    rp_prof = prof;
    rp_metrics = m;
    rp_seconds = seconds;
    rp_work = Sim.stage_work t;
  }

let profile_pair ?sample_every ~arch () =
  profile ?sample_every ~arch (Occamy_workloads.Motivating.pair ())

let summary_table r =
  Prof.summary_table
    ~title:
      (Printf.sprintf
         "%s self-profile: %.2fs wall, %d cycles (%d sampled, 1/%d)"
         (Arch.name r.rp_arch) r.rp_seconds
         (Prof.cycles r.rp_prof)
         (Prof.sampled_cycles r.rp_prof)
         (Prof.sample_every r.rp_prof))
    r.rp_prof

(* Join a stage's sampled time with its work counter: the counters
   cover the whole run while the time covers sampled cycles only, so
   scale the count by the sampling fraction before dividing. *)
let work_table r =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "%s stage work rates" (Arch.name r.rp_arch))
      ~header:[ "counter"; "count"; "stage"; "~ns/op (sampled)" ]
      ~aligns:[ Table.Left; Table.Right; Table.Left; Table.Right ] ()
  in
  let cycles = max 1 (Prof.cycles r.rp_prof) in
  let sampled = Prof.sampled_cycles r.rp_prof in
  let fraction = float_of_int sampled /. float_of_int cycles in
  let stage_ns stage =
    match
      List.find_opt
        (fun st -> st.Prof.ss_stage = stage)
        (Prof.stats r.rp_prof)
    with
    | Some st -> st.Prof.ss_ns
    | None -> 0
  in
  let row counter stage =
    match List.assoc_opt counter r.rp_work with
    | None -> ()
    | Some count ->
      let sampled_count = count *. fraction in
      let per_op =
        if sampled_count <= 0.0 then "-"
        else Printf.sprintf "%.0f" (float_of_int (stage_ns stage) /. sampled_count)
      in
      Table.add_row tbl
        [ counter; Printf.sprintf "%.0f" count; Prof.stage_name stage; per_op ]
  in
  row "lsu.retire_calls" Prof.Lsu_retire;
  row "lsu.retired" Prof.Lsu_retire;
  row "exebu.issue_checks" Prof.Dispatch;
  row "exebu.issues" Prof.Dispatch;
  tbl

let top3_line r =
  match Prof.top_stages r.rp_prof ~n:3 with
  | [] -> "top stages: (nothing sampled)"
  | tops ->
    "top stages: "
    ^ String.concat ", "
        (List.map
           (fun (s, share) ->
             Printf.sprintf "%s %.1f%%" (Prof.stage_name s) share)
           tops)
