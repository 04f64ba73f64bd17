(** A named counter/gauge registry.

    Dotted names ("core1.issued_compute", "mem.dram.bytes") form a flat
    namespace that experiments and tests query with {!get} instead of
    pattern-matching result records; {!Occamy_core.Metrics.counters}
    populates one from a simulation result. Counters are monotonically
    incremented integers reported as floats; gauges are set directly. *)

type t = { cells : (string, float ref) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

let cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.cells name r;
    r

let incr ?(by = 1) t name =
  let c = cell t name in
  c := !c +. float_of_int by

let set t name v = cell t name := v

let get t name = Option.map ( ! ) (Hashtbl.find_opt t.cells name)

let get_exn t name =
  match get t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Counters.get_exn: no counter named %S" name)

let mem t name = Hashtbl.mem t.cells name
let length t = Hashtbl.length t.cells

(** All [(name, value)] pairs, sorted by name. *)
let to_list t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.cells [])

let names t = List.map fst (to_list t)

(** Counters whose name starts with [prefix], sorted. *)
let with_prefix t ~prefix =
  let n = String.length prefix in
  List.filter
    (fun (name, _) ->
      String.length name >= n && String.sub name 0 n = prefix)
    (to_list t)

let pp ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%s=%g@." k v) (to_list t)

(** Fold a {!Occamy_util.Domain_pool.stats} (one parallel map's
    scheduler diagnostics) into the registry under [prefix] (default
    ["sweep"]): aggregate [<p>.{workers,tasks,steals,steal_attempts,
    minor_collections,major_collections,promoted_words}] plus
    per-worker [<p>.worker<i>.{tasks,steals,minor_collections,
    promoted_words}]. [incr]-based, so repeated calls accumulate a
    whole sweep's behaviour; [<p>.workers] is a gauge holding the
    widest worker count seen. *)
let record_pool ?(prefix = "sweep") t (s : Occamy_util.Domain_pool.stats) =
  let open Occamy_util in
  let p name = prefix ^ "." ^ name in
  let addf name v =
    let c = cell t name in
    c := !c +. v
  in
  let widest = match get t (p "workers") with Some w -> w | None -> 0.0 in
  set t (p "workers") (Float.max widest (float_of_int s.Domain_pool.st_workers));
  incr t (p "tasks") ~by:s.Domain_pool.st_tasks;
  Array.iteri
    (fun i (ws : Work_steal.worker_stats) ->
      let pw name = Printf.sprintf "%s.worker%d.%s" prefix i name in
      incr t (pw "tasks") ~by:ws.Work_steal.ws_tasks;
      incr t (pw "steals") ~by:ws.Work_steal.ws_steals;
      incr t (pw "minor_collections") ~by:ws.Work_steal.ws_minor_collections;
      addf (pw "promoted_words") ws.Work_steal.ws_promoted_words;
      incr t (p "steals") ~by:ws.Work_steal.ws_steals;
      incr t (p "steal_attempts") ~by:ws.Work_steal.ws_steal_attempts;
      incr t (p "minor_collections") ~by:ws.Work_steal.ws_minor_collections;
      incr t (p "major_collections") ~by:ws.Work_steal.ws_major_collections;
      addf (p "promoted_words") ws.Work_steal.ws_promoted_words)
    s.Domain_pool.st_by_worker

(** Flat JSON object fields in sorted-name order: the stable iteration
    order the JSON and OpenMetrics exporters rely on for deterministic,
    diffable output. *)
let to_json t =
  List.map (fun (k, v) -> (k, Occamy_util.Json.Num v)) (to_list t)

(** One [name,value] row per counter — pairs with the other CSV dumps. *)
let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "name,value\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s,%g\n" k v))
    (to_list t);
  Buffer.contents b
