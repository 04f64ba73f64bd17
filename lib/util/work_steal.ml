(* Long-lived work-stealing pool — see the interface for the design
   rationale. Synchronisation summary:

   - [pool.mutex] protects [gen]/[cur]/[stop]; [pool.work] wakes parked
     workers when a job is posted (or at shutdown); [pool.done_] wakes
     the caller when the remaining-task counter hits zero or a worker
     acks the job.
   - [pool.busy] is held for the whole of [run]; a [try_lock] failure
     means a nested/concurrent run, which degrades to sequential.
   - Each deque is one atomic int packing its (lo, hi) index range;
     per-index result/error cells elsewhere have exactly one writer.
   - The caller never posts generation g+1 before every spawned worker
     acked generation g, so a parked worker can never miss a job. *)

type observer =
  worker:int -> index:int -> phase:[ `Start | `Stop | `Steal of int ] -> unit

type worker_stats = {
  ws_tasks : int;
  ws_steals : int;
  ws_steal_attempts : int;
  ws_minor_collections : int;
  ws_major_collections : int;
  ws_minor_words : float;
  ws_promoted_words : float;
}

type stats = {
  st_workers : int;
  st_tasks : int;
  st_by_worker : worker_stats array;
}

let zero_worker_stats =
  {
    ws_tasks = 0;
    ws_steals = 0;
    ws_steal_attempts = 0;
    ws_minor_collections = 0;
    ws_major_collections = 0;
    ws_minor_words = 0.0;
    ws_promoted_words = 0.0;
  }

let add_worker_stats a w =
  {
    ws_tasks = a.ws_tasks + w.ws_tasks;
    ws_steals = a.ws_steals + w.ws_steals;
    ws_steal_attempts = a.ws_steal_attempts + w.ws_steal_attempts;
    ws_minor_collections = a.ws_minor_collections + w.ws_minor_collections;
    ws_major_collections = a.ws_major_collections + w.ws_major_collections;
    ws_minor_words = a.ws_minor_words +. w.ws_minor_words;
    ws_promoted_words = a.ws_promoted_words +. w.ws_promoted_words;
  }

let sum_stats s =
  Array.fold_left add_worker_stats zero_worker_stats s.st_by_worker

(* ------------------------------------------------------------------ *)
(* Range deques: (lo, hi) packed into one atomic int                    *)
(* ------------------------------------------------------------------ *)

let mask31 = (1 lsl 31) - 1
let[@inline] pack ~lo ~hi = (lo lsl 31) lor hi

(* Owner takes from the front. A CAS failure means a thief moved [hi];
   retry immediately (the owner is the only writer of [lo]). *)
let rec take_own d =
  let s = Atomic.get d in
  let lo = s lsr 31 and hi = s land mask31 in
  if lo >= hi then -1
  else if Atomic.compare_and_set d s (pack ~lo:(lo + 1) ~hi) then lo
  else take_own d

(* Thief takes from the back, with bounded exponential backoff between
   CAS attempts so contending thieves spread out. Returns -1 only once
   the deque is observed empty. *)
let steal d =
  let rec go pause =
    let s = Atomic.get d in
    let lo = s lsr 31 and hi = s land mask31 in
    if lo >= hi then -1
    else if Atomic.compare_and_set d s (pack ~lo ~hi:(hi - 1)) then hi - 1
    else begin
      for _ = 1 to pause do
        Domain.cpu_relax ()
      done;
      go (min (2 * pause) 256)
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type job = {
  gen : int;
  body : int -> unit;
  deques : int Atomic.t array;  (* one per participating worker *)
  remaining : int Atomic.t;  (* tasks not yet finished *)
  acks : int Atomic.t;  (* spawned workers done with this job *)
  obs : observer;
  wstats : worker_stats array;  (* slot per pool worker, written once *)
  err : (int * exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable cur : job option;
  mutable gen : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable spawned : int;
  busy : Mutex.t;
  minor_heap_mult : int;
}

(* Lowest task index wins, whatever order failures are reported in. *)
let rec note_error job i exn bt =
  let cur = Atomic.get job.err in
  match cur with
  | Some (j, _, _) when j <= i -> ()
  | _ ->
    if not (Atomic.compare_and_set job.err cur (Some (i, exn, bt))) then
      note_error job i exn bt

let no_observer ~worker:_ ~index:_ ~phase:_ = ()

(* Run the job as worker [w]: drain the own deque from the front, then
   sweep the other deques in randomized order until one full sweep finds
   everything empty — conclusive, because no tasks are ever added
   mid-job and ranges only shrink. Exceptions (from the task or from a
   buggy observer) are recorded, never propagated: the remaining-task
   counter must reach zero or the caller would block forever. *)
let participate pool job ~worker:w =
  let g0 = Gc.quick_stat () in
  let tasks = ref 0 and steals = ref 0 and attempts = ref 0 in
  let nd = Array.length job.deques in
  let run_task i =
    (try
       job.obs ~worker:w ~index:i ~phase:`Start;
       (try job.body i
        with exn -> note_error job i exn (Printexc.get_raw_backtrace ()));
       job.obs ~worker:w ~index:i ~phase:`Stop
     with exn -> note_error job i exn (Printexc.get_raw_backtrace ()));
    incr tasks;
    if Atomic.fetch_and_add job.remaining (-1) = 1 then begin
      Mutex.lock pool.mutex;
      Condition.broadcast pool.done_;
      Mutex.unlock pool.mutex
    end
  in
  if w < nd then begin
    let continue_ = ref true in
    while !continue_ do
      let i = take_own job.deques.(w) in
      if i < 0 then continue_ := false else run_task i
    done;
    if nd > 1 then begin
      (* Victim order is randomized per sweep (xorshift seeded from the
         worker id and generation) so thieves do not convoy on one
         victim; determinism of the results does not depend on it. *)
      let rng = ref (((w + 1) * 0x9E3779B9) lxor (job.gen * 0x85EBCA77) lor 1)
      and sweeping = ref true in
      while !sweeping do
        let x0 = !rng in
        let x1 = x0 lxor (x0 lsl 13) in
        let x2 = x1 lxor (x1 lsr 7) in
        let x3 = x2 lxor (x2 lsl 17) in
        rng := x3;
        let start = (x3 land max_int) mod nd in
        let found = ref false in
        for k = 0 to nd - 1 do
          let v = (start + k) mod nd in
          if v <> w then begin
            incr attempts;
            let i = steal job.deques.(v) in
            if i >= 0 then begin
              found := true;
              incr steals;
              (try job.obs ~worker:w ~index:i ~phase:(`Steal v)
               with exn ->
                 note_error job i exn (Printexc.get_raw_backtrace ()));
              run_task i
            end
          end
        done;
        if not !found then sweeping := false
      done
    end
  end;
  let g1 = Gc.quick_stat () in
  job.wstats.(w) <-
    {
      ws_tasks = !tasks;
      ws_steals = !steals;
      ws_steal_attempts = !attempts;
      ws_minor_collections =
        g1.Gc.minor_collections - g0.Gc.minor_collections;
      ws_major_collections =
        g1.Gc.major_collections - g0.Gc.major_collections;
      ws_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      ws_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    }

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let default_minor_heap_mult = 16

(* Must run *inside* the target domain: in OCaml 5 the minor heap is
   per-domain state, and (measured) setting it in the parent before
   [Domain.spawn] does not carry over. *)
let inflate_minor_heap mult =
  if mult > 1 then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = mult * 262144 }

let create ?(minor_heap_mult = default_minor_heap_mult) () =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    cur = None;
    gen = 0;
    stop = false;
    domains = [];
    spawned = 0;
    busy = Mutex.create ();
    minor_heap_mult = max 1 minor_heap_mult;
  }

let size t = t.spawned + 1

let worker_loop pool ~gen0 ~id =
  inflate_minor_heap pool.minor_heap_mult;
  let last = ref gen0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.gen = !last do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      continue_ := false
    end
    else begin
      let job = match pool.cur with Some j -> j | None -> assert false in
      Mutex.unlock pool.mutex;
      last := job.gen;
      (* Non-participants (id >= deque count) still write their (zero)
         stats slot and ack, so the caller's ack barrier is uniform. *)
      participate pool job ~worker:id;
      Mutex.lock pool.mutex;
      Atomic.incr job.acks;
      Condition.broadcast pool.done_;
      Mutex.unlock pool.mutex
    end
  done

(* Caller must hold [busy]. Workers spawned here snapshot the current
   generation, so they only react to jobs posted after them. *)
let ensure_spawned pool want =
  while pool.spawned < want do
    let id = pool.spawned + 1 in
    Mutex.lock pool.mutex;
    let gen0 = pool.gen in
    Mutex.unlock pool.mutex;
    pool.domains <-
      Domain.spawn (fun () -> worker_loop pool ~gen0 ~id) :: pool.domains;
    pool.spawned <- id
  done

let shutdown pool =
  Mutex.lock pool.busy;
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- [];
  pool.spawned <- 0;
  Mutex.lock pool.mutex;
  pool.stop <- false;
  Mutex.unlock pool.mutex;
  Mutex.unlock pool.busy

(* ------------------------------------------------------------------ *)
(* Running a job                                                       *)
(* ------------------------------------------------------------------ *)

let empty_stats = { st_workers = 0; st_tasks = 0; st_by_worker = [||] }

(* Sequential fallback: worker 0 only, same observer and error
   semantics as the pooled path (all tasks run; lowest index raises). *)
let run_inline ~observer ~on_stats body n =
  let g0 = Gc.quick_stat () in
  let err = ref None in
  for i = 0 to n - 1 do
    (try
       observer ~worker:0 ~index:i ~phase:`Start;
       (try body i
        with exn ->
          if !err = None then
            err := Some (i, exn, Printexc.get_raw_backtrace ()));
       observer ~worker:0 ~index:i ~phase:`Stop
     with exn ->
       if !err = None then err := Some (i, exn, Printexc.get_raw_backtrace ()))
  done;
  let g1 = Gc.quick_stat () in
  let ws =
    {
      zero_worker_stats with
      ws_tasks = n;
      ws_minor_collections =
        g1.Gc.minor_collections - g0.Gc.minor_collections;
      ws_major_collections =
        g1.Gc.major_collections - g0.Gc.major_collections;
      ws_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      ws_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    }
  in
  let stats = { st_workers = 1; st_tasks = n; st_by_worker = [| ws |] } in
  on_stats stats;
  (match !err with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  stats

let run pool ~workers ?(observer = no_observer) ?(on_stats = ignore) body n =
  if workers < 1 then invalid_arg "Work_steal.run: workers must be >= 1";
  if n < 0 then invalid_arg "Work_steal.run: negative task count";
  if n > mask31 then invalid_arg "Work_steal.run: task count too large";
  if n = 0 then begin
    on_stats empty_stats;
    empty_stats
  end
  else begin
    let participants = min workers n in
    if participants <= 1 then run_inline ~observer ~on_stats body n
    else if not (Mutex.try_lock pool.busy) then
      (* Nested or concurrent run: executing it inline keeps the outer
         job's workers and deques untouched and cannot deadlock. *)
      run_inline ~observer ~on_stats body n
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock pool.busy)
        (fun () ->
          ensure_spawned pool (participants - 1);
          let nworkers = pool.spawned + 1 in
          let job =
            {
              gen = pool.gen + 1;
              body;
              deques =
                Array.init participants (fun w ->
                    let lo = w * n / participants
                    and hi = (w + 1) * n / participants in
                    let d = Atomic.make (pack ~lo ~hi) in
                    (* Space consecutive atomics out so two workers'
                       deques do not share a cache line. *)
                    ignore (Sys.opaque_identity (Array.make 8 0));
                    d);
              remaining = Atomic.make n;
              acks = Atomic.make 0;
              obs = observer;
              wstats = Array.make nworkers zero_worker_stats;
              err = Atomic.make None;
            }
          in
          Mutex.lock pool.mutex;
          pool.gen <- job.gen;
          pool.cur <- Some job;
          Condition.broadcast pool.work;
          Mutex.unlock pool.mutex;
          participate pool job ~worker:0;
          Mutex.lock pool.mutex;
          while
            Atomic.get job.remaining > 0
            || Atomic.get job.acks < pool.spawned
          do
            Condition.wait pool.done_ pool.mutex
          done;
          pool.cur <- None;
          Mutex.unlock pool.mutex;
          let stats =
            {
              st_workers = participants;
              st_tasks = n;
              st_by_worker = Array.sub job.wstats 0 participants;
            }
          in
          on_stats stats;
          (match Atomic.get job.err with
          | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
          | None -> ());
          stats)
  end
