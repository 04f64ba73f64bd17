(* Facade over the {!Work_steal} pool — see the interface for the
   contract. Policy lives here (elastic worker cap, env knobs, the
   shared pool singleton, cumulative totals); mechanism lives in
   Work_steal. *)

let recommended_jobs ?(cap = 16) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

let default_warning msg = Printf.eprintf "occamy: %s\n%!" msg

let jobs_from_env ?(var = "OCCAMY_JOBS") ?cap
    ?(on_warning = default_warning) () =
  match Sys.getenv_opt var with
  | None | Some "" -> recommended_jobs ?cap ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      let fallback = recommended_jobs ?cap () in
      on_warning
        (Printf.sprintf
           "ignoring %s=%S (expected a positive integer); using %d" var s
           fallback);
      fallback)

let effective_workers ~oversubscribe ~cores ~jobs ~tasks =
  let w = max 1 (min jobs tasks) in
  if oversubscribe then w else min w (max 1 cores)

let oversubscribe_from_env () =
  match Sys.getenv_opt "OCCAMY_OVERSUBSCRIBE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let minor_heap_mult_from_env () =
  match Sys.getenv_opt "OCCAMY_MINOR_HEAP_MULT" with
  | None | Some "" -> 16
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some m when m >= 1 -> m
    | Some _ | None -> 16)

type observer =
  worker:int -> index:int -> phase:[ `Start | `Stop | `Steal of int ] -> unit

type stats = Work_steal.stats = {
  st_workers : int;
  st_tasks : int;
  st_by_worker : Work_steal.worker_stats array;
}

(* ------------------------------------------------------------------ *)
(* The shared pool                                                     *)
(* ------------------------------------------------------------------ *)

let pool_ref = ref None
let pool_mutex = Mutex.create ()

let the_pool () =
  Mutex.lock pool_mutex;
  let p =
    match !pool_ref with
    | Some p -> p
    | None ->
      let mult = minor_heap_mult_from_env () in
      let p = Work_steal.create ~minor_heap_mult:mult () in
      (* The caller participates as worker 0, and spawned workers can
         only be joined from here, so tie both to this domain. *)
      Work_steal.inflate_minor_heap mult;
      at_exit (fun () -> Work_steal.shutdown p);
      pool_ref := Some p;
      p
  in
  Mutex.unlock pool_mutex;
  p

let pool_size () =
  Mutex.lock pool_mutex;
  let n = match !pool_ref with Some p -> Work_steal.size p | None -> 1 in
  Mutex.unlock pool_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Cumulative totals                                                   *)
(* ------------------------------------------------------------------ *)

type totals = {
  t_tasks : int;
  t_max_workers : int;
  t_steals : int;
  t_steal_attempts : int;
  t_minor_collections : int;
  t_promoted_words : float;
}

(* One summed row plus the widest worker count; no reader needs the
   per-worker split. *)
let totals_mutex = Mutex.create ()
let t_sum = ref Work_steal.zero_worker_stats
let t_max_workers = ref 0

let reset_totals () =
  Mutex.lock totals_mutex;
  t_sum := Work_steal.zero_worker_stats;
  t_max_workers := 0;
  Mutex.unlock totals_mutex

let record_totals (s : stats) =
  let ws = Work_steal.sum_stats s in
  Mutex.lock totals_mutex;
  t_sum := Work_steal.add_worker_stats !t_sum ws;
  t_max_workers := max !t_max_workers s.st_workers;
  Mutex.unlock totals_mutex

let totals () =
  Mutex.lock totals_mutex;
  let sum = !t_sum and max_workers = !t_max_workers in
  Mutex.unlock totals_mutex;
  {
    t_tasks = sum.Work_steal.ws_tasks;
    t_max_workers = max_workers;
    t_steals = sum.Work_steal.ws_steals;
    t_steal_attempts = sum.Work_steal.ws_steal_attempts;
    t_minor_collections = sum.Work_steal.ws_minor_collections;
    t_promoted_words = sum.Work_steal.ws_promoted_words;
  }

(* ------------------------------------------------------------------ *)
(* map                                                                 *)
(* ------------------------------------------------------------------ *)

(* No-op task observer: the default keeps the hot path free of option
   checks inside the per-task loop. *)
let no_observer ~worker:_ ~index:_ ~phase:_ = ()

let emit_stats user s =
  record_totals s;
  match user with Some k -> k s | None -> ()

let map_array ?jobs ?oversubscribe ?(observer = no_observer) ?stats f tasks =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if jobs < 1 then invalid_arg "Domain_pool.map: jobs must be >= 1";
  let oversubscribe =
    match oversubscribe with
    | Some b -> b
    | None -> oversubscribe_from_env ()
  in
  let eff =
    effective_workers ~oversubscribe
      ~cores:(Domain.recommended_domain_count ())
      ~jobs ~tasks:n
  in
  if eff <= 1 || n <= 1 then begin
    (* Sequential fast path: no pool, no domains; an exception aborts
       the map immediately (the first failure is the lowest index). *)
    let g0 = Gc.quick_stat () in
    let out =
      Array.mapi
        (fun i task ->
          observer ~worker:0 ~index:i ~phase:`Start;
          let v = f task in
          observer ~worker:0 ~index:i ~phase:`Stop;
          v)
        tasks
    in
    let g1 = Gc.quick_stat () in
    emit_stats stats
      {
        st_workers = 1;
        st_tasks = n;
        st_by_worker =
          [|
            {
              Work_steal.zero_worker_stats with
              Work_steal.ws_tasks = n;
              ws_minor_collections =
                g1.Gc.minor_collections - g0.Gc.minor_collections;
              ws_major_collections =
                g1.Gc.major_collections - g0.Gc.major_collections;
              ws_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              ws_promoted_words =
                g1.Gc.promoted_words -. g0.Gc.promoted_words;
            };
          |];
      };
    out
  end
  else begin
    let results = Array.make n None in
    (* Work_steal.run raises the lowest-index task error itself, after
       every task ran and [on_stats] fired. *)
    ignore
      (Work_steal.run (the_pool ()) ~workers:eff ~observer
         ~on_stats:(emit_stats stats)
         (fun i -> results.(i) <- Some (f tasks.(i)))
         n);
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every slot written or an error raised *))
      results
  end

let map ?jobs ?oversubscribe ?observer ?stats f xs =
  match xs with
  | [] -> []
  | xs ->
    Array.to_list
      (map_array ?jobs ?oversubscribe ?observer ?stats f (Array.of_list xs))
