(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulator draws from an explicitly
    seeded generator so that experiments are reproducible run-to-run and
    independent simulations never share hidden state. *)

type t

val create : seed:int -> t
(** A fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** An independent clone continuing from the same state. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bits53 : t -> int
(** The draw behind {!float}, as its exact 53-bit integer:
    [float t = float_of_int (bits53 t) *. 2^-53]. Lets allocation-free
    callers keep the float math on their own side of the module boundary
    (a float return boxes at any non-inlined call). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] on a
    non-positive bound. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element; raises on an empty array. *)

val split : t -> t
(** Derive an independent generator, advancing [t]. *)

val mix3 : seed:int -> stream:int -> int -> int
(** Pure (stateless) 62-bit non-negative hash of a (seed, stream, index)
    triple — the basis of replayable fault-trial schedules: drawing
    index [i] never requires visiting indices [0..i-1], and distinct
    streams are independent. *)
