(** Leader schedules of the paper's failure experiments (Section VI-B).

    Byzantine (silent) nodes are the last [f'] ids, [n - f' .. n - 1]; a
    schedule is a cyclic arrangement of all [n] nodes that the leader
    election function walks round-robin, so every node leads once per cycle
    (the fair LSO/LCO setting). *)

type t =
  | Round_robin  (** Plain rotation; the happy-path experiments. *)
  | Best_case
      (** [B]: all honest leaders first, then all Byzantine — the best case
          for non-reorg-resilient and pipelined protocols. *)
  | Worst_moonshot
      (** [WM]: honest-then-Byzantine alternating for [2f'] views, then the
          remaining [n - 2f'] honest — worst case for reorg-resilient
          pipelined protocols. *)
  | Worst_jolteon
      (** [WJ]: two-honest-then-Byzantine repeated for [3f'] views, then the
          remaining [n - 3f'] honest — worst case for non-reorg-resilient
          pipelined protocols. *)

(** Every schedule, in the order above. *)
val all : t list

(** Canonical name: ["round-robin"], ["B"], ["WM"] or ["WJ"]. *)
val name : t -> string

(** Inverse of {!name}; [None] on unknown names. *)
val of_name : string -> t option

(** The Byzantine node ids: [n - f' .. n - 1].
    Raises [Invalid_argument] when [f' > (n - 1) / 3] or [f' < 0]. *)
val byzantine_ids : n:int -> f':int -> int list

(** [is_byzantine ~n ~f' i] — is node [i] in {!byzantine_ids}? *)
val is_byzantine : n:int -> f':int -> int -> bool

(** The length-[n] cyclic arrangement of leaders.
    Raises [Invalid_argument] on inconsistent [n], [f']. *)
val arrangement : t -> n:int -> f':int -> int array

(** [leader_of t ~n ~f'] maps a view (1-based) to its leader's node id.
    {!Round_robin} is {!Bft_types.Validator_set.round_robin}. *)
val leader_of : t -> n:int -> f':int -> int -> int
