(* Cycle-accounted simulator runs: drive a scenario with the top-down
   attribution recorder enabled and print the per-core bucket breakdown
   — the `bench attrib` section. Mirrors Prof_run, which does the same
   for host-time profiling. *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Attrib = Occamy_obs.Attrib

type report = {
  ar_arch : Arch.t;
  ar_attrib : Attrib.t;
  ar_metrics : Metrics.t;
  ar_seconds : float;
}

let run ?(cfg = Config.default) ?context_switches ?window ~arch wls =
  let attrib = Attrib.create ?window ~cores:cfg.Config.cores () in
  let t = Sim.create ~cfg ?context_switches ~attrib ~arch wls in
  let m, seconds = Perf.time (fun () -> Sim.run t) in
  { ar_arch = arch; ar_attrib = attrib; ar_metrics = m; ar_seconds = seconds }

let run_pair ?cfg ?window ~arch () =
  run ?cfg ?window ~arch (Occamy_workloads.Motivating.pair ())

let summary_table r =
  Attrib.summary_table
    ~title:
      (Printf.sprintf "%s cycle accounting: %d cycles, %.3fs wall"
         (Arch.name r.ar_arch) r.ar_metrics.Metrics.total_cycles r.ar_seconds)
    r.ar_attrib
