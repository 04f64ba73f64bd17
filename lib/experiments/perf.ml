(** Simulator throughput measurement: the naive tick loop vs the
    event-horizon fast-forwarding loop ([Config.fast_forward]) on the
    same workloads, reported as simulated cycles per wall-clock second
    plus the skip ratio. Backs `bench perf` and `occamy-sim ... --perf`;
    the CI perf-smoke job gates on the fast-forward loop not being
    slower than the naive one. Both loops run back to back in one
    process, so the ratio holds on any machine; wall-time comparisons
    across commits belong to perfbench/.

    Every measurement double-checks the equivalence guarantee (metrics
    of both loops must be bit-identical) — redundantly with the
    test_fastforward suite, but a perf number derived from a divergent
    simulation would be meaningless.

    [time] is the one wall-clock timer of the experiments and the bench
    harness. *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config

(** [time f] runs [f] and returns its result with the elapsed seconds,
    read off {!Occamy_obs.Prof.clock_ns} — the monotonic clock the
    self-profiler and perfbench's spans use. *)
let time f =
  let t0 = Occamy_obs.Prof.clock_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Occamy_obs.Prof.clock_ns ()) t0) *. 1e-9)

type sample = {
  arch : Arch.t;
  simulated_cycles : int;  (* final simulator cycle of the run *)
  skipped_cycles : int;    (* cycles covered by fast-forward jumps *)
  ff_jumps : int;
  naive_seconds : float;
  ff_seconds : float;
}

let skip_ratio s =
  if s.simulated_cycles <= 0 then 0.0
  else float_of_int s.skipped_cycles /. float_of_int s.simulated_cycles

(* Wall-clock guard: a degenerate 0-second measurement (clock
   granularity) must not produce infinite rates or NaN gates. *)
let per_second cycles seconds =
  float_of_int cycles /. Float.max seconds 1e-9

let naive_cycles_per_sec s = per_second s.simulated_cycles s.naive_seconds
let ff_cycles_per_sec s = per_second s.simulated_cycles s.ff_seconds
let speedup s = s.naive_seconds /. Float.max s.ff_seconds 1e-9

(** Time one architecture on [wls], naive loop and fast-forward loop.
    [repeat] runs the pair that many times, alternating naive and
    fast-forward so host drift falls on both alike, and keeps each
    loop's fastest wall-clock (the standard noise dodge: the minimum is
    the run least perturbed by the rest of the machine). Raises
    [Failure] if the two loops disagree on the metrics — the equivalence
    guarantee the measurement rests on. *)
let measure ?(cfg = Config.default) ?(context_switches = []) ?(repeat = 1)
    ~arch wls =
  if repeat < 1 then invalid_arg "Perf.measure: repeat must be >= 1";
  let run fast_forward =
    let t =
      Sim.create ~cfg:{ cfg with Config.fast_forward } ~context_switches
        ~arch wls
    in
    let m = Sim.run t in
    (m, t)
  in
  let (m_naive, _), s_naive = time (fun () -> run false) in
  let (m_ff, t_ff), s_ff = time (fun () -> run true) in
  let naive_seconds = ref s_naive and ff_seconds = ref s_ff in
  for _ = 2 to repeat do
    naive_seconds := Float.min !naive_seconds (snd (time (fun () -> run false)));
    ff_seconds := Float.min !ff_seconds (snd (time (fun () -> run true)))
  done;
  if m_naive <> m_ff then
    failwith
      (Printf.sprintf
         "Perf.measure: fast-forward diverged from the naive loop on %s \
          (run the test_fastforward suite)"
         (Arch.name arch));
  {
    arch;
    simulated_cycles = Sim.cycle t_ff;
    skipped_cycles = Sim.skipped_cycles t_ff;
    ff_jumps = Sim.ff_jumps t_ff;
    naive_seconds = !naive_seconds;
    ff_seconds = !ff_seconds;
  }

(** Measure all four architectures sequentially (wall-clock timings must
    not contend for cores, so this deliberately takes no [~jobs]). *)
let measure_all ?cfg ?context_switches ?repeat wls =
  List.map
    (fun arch -> measure ?cfg ?context_switches ?repeat ~arch wls)
    Arch.all

(** Geometric mean over [samples] of fast-forward seconds per naive
    second: one figure per scenario, to which every architecture
    contributes alike however long its run. *)
let ff_over_naive samples =
  Occamy_util.Stats.geomean
    (List.map
       (fun s -> Float.max s.ff_seconds 1e-9 /. Float.max s.naive_seconds 1e-9)
       samples)

let pp_sample ppf s =
  Fmt.pf ppf
    "%-8s %10d cycles  skip %5.1f%% in %4d jumps  naive %8.0f cyc/s  ff \
     %8.0f cyc/s  speedup %.2fx"
    (Arch.name s.arch) s.simulated_cycles
    (100.0 *. skip_ratio s)
    s.ff_jumps (naive_cycles_per_sec s) (ff_cycles_per_sec s) (speedup s)
