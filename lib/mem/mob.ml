(** Memory Ordering Buffer (§4.1.2).

    The MOB "tracks the memory regions within which at least one SVE ld/st
    instruction has not yet completed". Scalar cores consult it to order
    scalar accesses against in-flight vector accesses (Table 2's
    ⟨SVE, Scalar⟩ row): a younger access overlapping a tracked region must
    wait until the matching entries are deallocated.

    Regions are (array, base element, length) triples; completion
    deallocates. The structure is per-machine (addresses are global).

    Data-oriented layout: entries live in preallocated parallel int
    arrays indexed by slot, with a packed occupancy bitmask, a free-slot
    stack for O(1) allocation, and per-array lists of occupied slots
    (one for loads, one for stores) so a conflict probe walks only the
    entries of its own array — the simulator probes
    [conflicts]/[is_full] on every load/store issue attempt, and none of
    it allocates. The simulator addresses entries
    by slot ([insert_slot]/[remove_slot]); the id-based API remains for
    callers that want stable handles. *)

open Occamy_util

type t = {
  capacity : int;
  mutable next_id : int;
  ids : int array; (* stable external id per slot, -1 = free *)
  cores : int array;
  arrs : int array;
  bases : int array;
  lens : int array;
  stores : bool array;
  occ : Bitset.t;
  free : int array;
  mutable free_n : int;
  (* Per-array-id lists of occupied slots, doubly linked through
     [next]/[prev] (-1 ends a list): a read can only conflict with an
     in-flight store to the same array, and a write with any in-flight
     access to it, so a probe walks [st_first.(arr)] (and, for a write,
     [ld_first.(arr)]) instead of every occupied slot. Entries whose
     array id lies outside [0, arr_span) (rare) are on no list; a probe
     for such an id falls back to the full sweep. *)
  ld_first : int array;
  st_first : int array;
  next : int array;
  prev : int array;
}

let arr_span = 256

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Mob.create: capacity must be positive";
  {
    capacity;
    next_id = 0;
    ids = Array.make capacity (-1);
    cores = Array.make capacity 0;
    arrs = Array.make capacity 0;
    bases = Array.make capacity 0;
    lens = Array.make capacity 0;
    stores = Array.make capacity false;
    occ = Bitset.create capacity;
    free = Array.init capacity (fun i -> i);
    free_n = capacity;
    ld_first = Array.make arr_span (-1);
    st_first = Array.make arr_span (-1);
    next = Array.make capacity (-1);
    prev = Array.make capacity (-1);
  }

let size t = t.capacity - t.free_n
let[@inline] is_full t = t.free_n = 0

(** [insert_slot] registers an in-flight vector access and returns its
    slot handle; allocation-free. Raises when full — the simulator
    checks {!is_full} first. *)
let insert_slot t ~core ~arr ~base ~len ~is_store =
  if len < 0 || base < 0 then invalid_arg "Mob.insert: bad region";
  if t.free_n = 0 then invalid_arg "Mob.insert_slot: full";
  t.free_n <- t.free_n - 1;
  let s = t.free.(t.free_n) in
  t.ids.(s) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.cores.(s) <- core;
  t.arrs.(s) <- arr;
  t.bases.(s) <- base;
  t.lens.(s) <- len;
  t.stores.(s) <- is_store;
  if arr >= 0 && arr < arr_span then begin
    let first = if is_store then t.st_first else t.ld_first in
    let h = first.(arr) in
    t.next.(s) <- h;
    t.prev.(s) <- -1;
    if h >= 0 then t.prev.(h) <- s;
    first.(arr) <- s
  end;
  Bitset.add t.occ s;
  s

let remove_slot t s =
  if s < 0 || s >= t.capacity || not (Bitset.mem t.occ s) then
    invalid_arg "Mob.remove_slot: not occupied";
  t.ids.(s) <- -1;
  let arr = t.arrs.(s) in
  if arr >= 0 && arr < arr_span then begin
    let p = t.prev.(s) and n = t.next.(s) in
    if p >= 0 then t.next.(p) <- n
    else if t.stores.(s) then t.st_first.(arr) <- n
    else t.ld_first.(arr) <- n;
    if n >= 0 then t.prev.(n) <- p
  end;
  Bitset.remove t.occ s;
  t.free.(t.free_n) <- s;
  t.free_n <- t.free_n + 1

(** [insert] registers an in-flight vector access; returns its id, or
    [None] when the MOB is full (the LSU must stall the access). *)
let insert t ~core ~arr ~base ~len ~is_store =
  if len < 0 || base < 0 then invalid_arg "Mob.insert: bad region";
  if is_full t then None
  else begin
    let s = insert_slot t ~core ~arr ~base ~len ~is_store in
    Some t.ids.(s)
  end

let rec find_id t id s =
  if s < 0 then -1
  else if t.ids.(s) = id then s
  else find_id t id (Bitset.next_set_from t.occ (s + 1))

let remove t id =
  let s = find_id t id (Bitset.next_set_from t.occ 0) in
  if s >= 0 then remove_slot t s

let[@inline] ranges_overlap b1 l1 b2 l2 = b1 < b2 + l2 && b2 < b1 + l1

(* Full sweep over occupied slots, for array ids outside the lists. *)
let rec conflict_scan t ~arr ~base ~len ~is_store s =
  if s < 0 then false
  else if
    t.arrs.(s) = arr
    && ranges_overlap t.bases.(s) t.lens.(s) base len
    && (is_store || t.stores.(s))
  then true
  else
    conflict_scan t ~arr ~base ~len ~is_store
      (Bitset.next_set_from t.occ (s + 1))

(* Walk one same-array list for an overlapping region. *)
let rec list_overlaps t ~base ~len s =
  s >= 0
  && (ranges_overlap t.bases.(s) t.lens.(s) base len
     || list_overlaps t ~base ~len t.next.(s))

(** Does a (read) access to [arr.[base..base+len)] conflict with any
    in-flight entry? Reads conflict only with in-flight stores; writes
    conflict with everything. *)
let conflicts t ~arr ~base ~len ~is_store =
  if arr < 0 || arr >= arr_span then
    conflict_scan t ~arr ~base ~len ~is_store (Bitset.next_set_from t.occ 0)
  else
    list_overlaps t ~base ~len t.st_first.(arr)
    || (is_store && list_overlaps t ~base ~len t.ld_first.(arr))

let rec count_core t ~core acc s =
  if s < 0 then acc
  else
    count_core t ~core
      (if t.cores.(s) = core then acc + 1 else acc)
      (Bitset.next_set_from t.occ (s + 1))

(** Entries belonging to a core, used to decide whether its SIMD ld/st
    pipeline has drained. *)
let outstanding_of t ~core = count_core t ~core 0 (Bitset.next_set_from t.occ 0)

let clear t =
  Bitset.clear t.occ;
  Array.fill t.ids 0 t.capacity (-1);
  Array.fill t.ld_first 0 arr_span (-1);
  Array.fill t.st_first 0 arr_span (-1);
  t.free_n <- t.capacity;
  for i = 0 to t.capacity - 1 do
    t.free.(i) <- i
  done
