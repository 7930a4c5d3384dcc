(** One host for protocol nodes on every substrate.

    The simulator harness ([Bft_runtime.Harness]), the live TCP cluster
    ([Bft_net.Tcp]) and the model checker ([Bft_mc.Checker]) all run the
    unchanged {!Bft_types.Protocol_intf.S} nodes.  This module is the one
    place that wires such a node up: it builds the node's
    {!Bft_types.Env.t} from the substrate's transport and the run-wide
    inputs, taps the node's commits, probe events and deliveries into a
    {!Bft_obs.Trace.t}, and owns the node's lifecycle — its WAL, its
    current incarnation, restarts from the WAL.

    A driver keeps only what is its own: the substrate (engine or sockets),
    metrics and fault interpretation.  It passes its transport per
    incarnation ({!link}) and its commit/propose bookkeeping as hooks; the
    host calls the hooks after its own trace taps.  The host never emits
    fault events — crashes and recoveries belong to whoever causes them. *)

open Bft_types

(** Where a leader's block payload comes from. *)
type payload =
  | Fixed of int  (** Parametric: [b_v] of this many bytes, id = view. *)
  | Clients of Bft_mempool.Ingest.t
      (** Client traffic: cut from the run's mempool stream. *)

(** The outgoing side of one node on its substrate: the {!Env.t} fields
    [send], [multicast] and [set_timer] of that node. *)
type 'msg link = {
  send : int -> 'msg -> unit;
  multicast : 'msg -> unit;
  set_timer : float -> (unit -> unit) -> unit -> unit;
}

module Make (P : Protocol_intf.S) : sig
  type t

  (** [create ~n ~delta ~leader_of ~payload ~wal ~now ~on_commit
      ~on_propose ()] hosts the nodes [0 .. n-1] of one run (a driver
      that runs one node, like a socket incarnation, uses one slot).
      [now] is the substrate clock in milliseconds.  [wal] gives every
      node a WAL that outlives its incarnations; without it nodes run
      WAL-less.  [on_commit id b] and [on_propose id b] are the driver's
      hooks behind the node's {!Env.t} callbacks.  [trace], when given and
      enabled, receives every node's [Committed] and [Node_event] events,
      and the [Delivered] events of {!delivered} and {!delivery_tap};
      without it the nodes get no probe and the taps are absent. *)
  val create :
    n:int ->
    delta:float ->
    leader_of:(int -> int) ->
    payload:payload ->
    ?trace:Bft_obs.Trace.t ->
    wal:bool ->
    now:(unit -> float) ->
    on_commit:(int -> Block.t -> unit) ->
    on_propose:(int -> Block.t -> unit) ->
    unit ->
    t

  (** [spawn t ~link ?equivocate ?wrap id] creates a new incarnation of
      node [id] over [link], from its WAL when the host keeps WALs, and
      makes it the current one.  [wrap] derives the environment the node
      actually gets (the Byzantine wrappers of {!Env}).  The node is not
      started: the driver installs its handler and calls [P.start]. *)
  val spawn :
    t ->
    link:P.msg link ->
    ?equivocate:bool ->
    ?wrap:(P.msg Env.t -> P.msg Env.t) ->
    int ->
    P.node

  (** [restore_wal t id blob] replaces node [id]'s WAL with the snapshot
      [blob] ([P.wal_encode] output).  A corrupt snapshot is logged and
      leaves the node an empty WAL: it restarts as a fresh node rather
      than not at all. *)
  val restore_wal : t -> int -> string -> unit

  (** Node [id]'s WAL.  Raises [Invalid_argument] on a host created
      without WALs. *)
  val wal : t -> int -> P.wal

  (** Node [id]'s current incarnation, [None] before its first {!spawn}
      or after {!stop}. *)
  val node : t -> int -> P.node option

  (** Incarnations of node [id] this host spawned, minus one: [0] for the
      first, [-1] before it. *)
  val incarnation : t -> int -> int

  (** The current incarnation's view; [0] when there is none. *)
  val view : t -> int -> int

  (** Forget node [id]'s current incarnation (it crashed); its WAL stays. *)
  val stop : t -> int -> unit

  (** [delivered t ~src ~dst ~bytes msg] records, at [now ()], the
      delivery of [msg] from [src] to [dst], [bytes] on the wire.  No-op
      untraced. *)
  val delivered : t -> src:int -> dst:int -> bytes:int -> P.msg -> unit

  (** A simulator delivery tap ([Bft_sim.Engine.set_delivery_tap]) that
      records every delivery at [P.msg_size] bytes; [None] untraced, so an
      untraced engine runs without one. *)
  val delivery_tap :
    t -> (time:float -> src:int -> dst:int -> P.msg -> unit) option
end
