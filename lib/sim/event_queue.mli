(** Priority queue of timestamped events.

    Events pop in nondecreasing time order; events with equal timestamps pop
    in insertion (FIFO) order, which keeps simulations fully deterministic. *)

type 'a t

(** An empty queue. *)
val create : unit -> 'a t

(** [push t ~time ev] schedules [ev].  Raises [Invalid_argument] on a
    non-finite time. *)
val push : 'a t -> time:float -> 'a -> unit

(** {2 Explicit sequence numbers}

    Ties at equal times pop in sequence-number order, and {!push} takes the
    next number.  A caller that stands one heap entry for an ordered stream
    of events (the engine's multicast fan-outs and CPU queues) reserves the
    numbers the events would have been pushed with, keeps the stream sorted
    by (time, seq), and keys the entry by its head: the pop order is then
    the same as with one entry per event.  Keys are read from a float array
    slot so no float is boxed across the call. *)

(** [reserve_seqs t k] claims the next [k] sequence numbers and returns the
    first; later {!push}es number after them. *)
val reserve_seqs : 'a t -> int -> int

(** [push_keyed t keys k ~seq ev] schedules [ev] at time [keys.(k)] with
    sequence number [seq], which must have been reserved.  Raises
    [Invalid_argument] on a non-finite time or an unreserved [seq]. *)
val push_keyed : 'a t -> float array -> int -> seq:int -> 'a -> unit

(** The earliest event, left in place.  Raises [Invalid_argument] when
    empty. *)
val top : 'a t -> 'a

(** [replace_top t keys k ~seq] re-keys the earliest event to
    ([keys.(k)], [seq]) and restores heap order with one sift down — the
    pop-and-push of a stream advancing to its next event, without the
    pop's move of the last leaf.  Same checks as {!push_keyed}; raises on
    an empty queue. *)
val replace_top : 'a t -> float array -> int -> seq:int -> unit

(** Earliest event, or [None] when empty. *)
val pop : 'a t -> (float * 'a) option

(** Time of the earliest event.  Raises [Invalid_argument] when empty.
    Together with {!take} this is the engine's allocation-free drain path
    ({!pop} boxes a [Some] and a tuple per event). *)
val min_time : 'a t -> float

(** Pop the earliest event, returning only its value.  Raises
    [Invalid_argument] when empty; read {!min_time} first if the
    timestamp is needed. *)
val take : 'a t -> 'a

(** Time of the earliest event without popping, or [None] when empty. *)
val peek_time : 'a t -> float option

(** Whether the queue holds no events. *)
val is_empty : 'a t -> bool

(** Number of events currently queued. *)
val size : 'a t -> int
