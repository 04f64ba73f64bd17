(* In-memory span recorder for the benchmark's traced runs.

   A span is one call into a layer of the library, recorded from the
   benchmark's own code around the public function it calls. Spans nest
   through a per-domain stack of open spans, so a span opened on a pool
   worker names its parent explicitly ([?ctx]) and everything below it
   inherits from the stack. All spans of one simulation or fuzz case
   share a trace id. Recording takes a mutex per closed span, which is
   noise next to the calls being wrapped (the smallest is a fuzz-case
   reference run). *)

type span = {
  id : int;
  trace : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  next : int Atomic.t;
  mutable closed : span list;
}

let now_ns () = Int64.to_int (Occamy_obs.Prof.clock_ns ())

let create ~enabled =
  { enabled; lock = Mutex.create (); next = Atomic.make 0; closed = [] }

(* Open spans of this domain, innermost first: (span id, trace id). *)
let open_spans : (int * int) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

type ctx = (int * int) option

let current () : ctx =
  match Domain.DLS.get open_spans with top :: _ -> Some top | [] -> None

let with_ t ?ctx ?trace name f =
  if not t.enabled then f ()
  else begin
    let stack = Domain.DLS.get open_spans in
    let parent_ctx = match ctx with Some c -> c | None -> current () in
    let parent, inherited =
      match parent_ctx with Some (p, tr) -> (p, tr) | None -> (-1, 0)
    in
    let trace = Option.value trace ~default:inherited in
    let id = Atomic.fetch_and_add t.next 1 in
    Domain.DLS.set open_spans ((id, trace) :: stack);
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      Domain.DLS.set open_spans stack;
      Mutex.lock t.lock;
      t.closed <- { id; trace; parent; name; start_ns; stop_ns } :: t.closed;
      Mutex.unlock t.lock
    in
    Fun.protect ~finally:close f
  end

let spans t = List.rev t.closed

(* Self time: a span's duration minus the part of it its children cover.
   Children running concurrently on pool workers overlap, so the wall
   clock inside a parent is also shared out: a stretch covered by k
   children gives each 1/k of its wall time, and [self_share_ns] is the
   self time scaled by the share of its span's wall time it kept. Summed
   over a tree, [self_share_ns] adds up exactly to the root's duration,
   which is what the accounting check compares against. *)
type self = { span : span; self_ns : int; self_share_ns : float }

let union_len intervals =
  let sorted = List.sort compare intervals in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc + (b - max a reach), b))
      (0, min_int) sorted
  in
  total

(* Wall time of each child after sharing overlapping stretches equally. *)
let shared_lengths children =
  let points =
    List.sort_uniq compare
      (List.concat_map (fun s -> [ s.start_ns; s.stop_ns ]) children)
  in
  let tbl = Hashtbl.create 16 in
  let rec segments = function
    | a :: (b :: _ as rest) ->
      let active =
        List.filter (fun s -> s.start_ns <= a && s.stop_ns >= b) children
      in
      let k = List.length active in
      if k > 0 then
        List.iter
          (fun s ->
            let prev = Option.value (Hashtbl.find_opt tbl s.id) ~default:0.0 in
            Hashtbl.replace tbl s.id (prev +. (float_of_int (b - a) /. float k)))
          active;
      segments rest
    | _ -> ()
  in
  segments points;
  tbl

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let kids s = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
  let out = ref [] in
  let rec visit weight s =
    let dur = s.stop_ns - s.start_ns in
    let ks = kids s in
    let covered =
      union_len
        (List.map
           (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
           ks)
    in
    let self_ns = dur - covered in
    out :=
      { span = s; self_ns; self_share_ns = float_of_int self_ns *. weight }
      :: !out;
    let shared = shared_lengths ks in
    List.iter
      (fun c ->
        let cdur = c.stop_ns - c.start_ns in
        let w =
          if cdur = 0 then weight
          else weight *. Hashtbl.find shared c.id /. float_of_int cdur
        in
        visit w c)
      ks
  in
  List.iter (visit 1.0)
    (Option.value (Hashtbl.find_opt children (-1)) ~default:[]);
  List.rev !out

let to_json_line self =
  let s = self.span in
  Occamy_util.Json.(
    obj_to_line
    [
      ("span", Num (float_of_int s.id));
      ("trace", Num (float_of_int s.trace));
      ("parent", Num (float_of_int s.parent));
      ("name", Str s.name);
      ("start_ns", Num (float_of_int s.start_ns));
      ("end_ns", Num (float_of_int s.stop_ns));
      ("self_ns", Num (float_of_int self.self_ns));
      ("self_share_ns", Num self.self_share_ns);
    ])
