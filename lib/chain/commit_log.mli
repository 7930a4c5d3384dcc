(** A node's committed chain.

    Committing a block commits its uncommitted ancestors first (the paper's
    indirect commit), so the log is always a chain extending genesis.  The
    log refuses inconsistent commits loudly: a conflicting commit at an
    already-filled height raises {!Safety_violation}, which is exactly the
    condition the SMR safety property forbids — tests rely on this being
    impossible to trigger through any protocol execution. *)

open Bft_types

exception Safety_violation of string

type t

(** [create ~on_commit] — [on_commit] fires once per block in chain order. *)
val create : ?on_commit:(Block.t -> unit) -> unit -> t

(** [commit t store b] commits [b] and any uncommitted ancestors found in
    [store].  Returns the list of newly committed blocks in chain order
    (empty if [b] was already committed).  Raises [Safety_violation] on a
    conflicting commit and [Invalid_argument] when an ancestor is missing
    from [store]. *)
val commit : t -> Block_store.t -> Block.t -> Block.t list

(** [holds t b] is true when [b] is the committed block at [b]'s height.
    O(1) and allocation-free: this is the frontier test that lets ancestry
    walks stop at the committed prefix instead of at genesis. *)
val holds : t -> Block.t -> bool

val is_committed : t -> Hash.t -> bool
val last : t -> Block.t  (** Highest committed block; genesis initially. *)

val length : t -> int  (** Committed blocks, genesis excluded. *)

val at_height : t -> int -> Block.t option
val to_list : t -> Block.t list  (** Genesis first. *)
