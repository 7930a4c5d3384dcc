(** The validator set and its quorum arithmetic.

    The system runs [n] nodes of which up to [f < n/3] may be Byzantine.  A
    quorum is [n - f] nodes, which equals the paper's [2f + 1] when
    [n = 3f + 1] (Section II) and always satisfies the quorum-intersection
    property (any two quorums share at least [f + 1] nodes). *)

type t = private { n : int; f : int }

(** [make n] for a system of [n >= 1] nodes; [f = (n - 1) / 3].
    Raises [Invalid_argument] if [n < 1]. *)
val make : int -> t

(** Size of a quorum: [n - f]. *)
val quorum : t -> int

(** Commit quorum [2f + 1]: how many nodes must commit a block before it
    counts as final for latency accounting, on both substrates.  Equals
    {!quorum} when [n = 3f + 1] and is smaller otherwise (3 vs 4 at
    [n = 5]). *)
val commit_quorum : t -> int

(** Size of the weak quorum [f + 1] that guarantees at least one honest
    member (used by Bracha-style timeout amplification). *)
val weak_quorum : t -> int

(** [is_member t i] is true when [0 <= i < n]. *)
val is_member : t -> int -> bool

(** [round_robin t view] — the plain rotation's leader of [view]: node
    [(view - 1) mod n], so node 0 leads view 1 (views below 1 wrap the same
    way).  The one round-robin schedule: the simulator's
    [Schedules.Round_robin], the socket cluster and the model checker all
    elect with it. *)
val round_robin : t -> int -> int

val pp : Format.formatter -> t -> unit
