(** View-anchored ("logical clock") interpretation of fault schedules.

    A {!Fault_schedule.t} is written against a clock.  The simulator
    interprets event times as simulated milliseconds and the TCP backend
    can interpret them as wall milliseconds — but a time-based schedule
    can never produce the {e same committed chain} on both substrates:
    view progression is latency-bound, so the set of views falling inside
    a given time window differs between a discrete-event run and a real
    socket run, and with it the set of views that time out.

    This module fixes that by reading the same schedule against the only
    clock both substrates share: the protocol's own view counter.  Event
    times are interpreted as {e view numbers}:

    - [crash@5:2] — node 2 goes dark when {e its own} current view first
      reaches 5 (checked between handler runs: the handler that enters
      the view completes, including its sends, and then the node dies);
    - [recover@9:2] — node 2 restarts from its WAL when the {e observer}
      (node 0, which a logical schedule must never crash) reaches view 9;
    - [partition@7-9:1/0,2,3] — a frame from [src] to a node in another
      group is dropped iff [src]'s current view at send time is in
      [[7, 9)].

    Every trigger is a deterministic function of protocol state, not of
    elapsed time, so a schedule drawn by {!random} yields the same
    committed (height, view, hash) chain on the simulator and on real
    sockets — the property `crossval --chaos` checks.  Loss and delay
    windows are inherently probabilistic/temporal and are rejected.

    Chain equality additionally needs the schedule to keep view
    progression timing-independent; {!random} enforces the sufficient
    conditions (see its doc). *)

type t

(** Compile a schedule under the view-clock reading.  Errors when the
    schedule contains loss or delay windows, crashes the observer
    (node 0), crashes any node more than once, or recovers a node that
    never crashed. *)
val of_schedule : n:int -> Fault_schedule.t -> (t, string) result

(** Like {!of_schedule} but raises [Invalid_argument]. *)
val of_schedule_exn : n:int -> Fault_schedule.t -> t

(** The node whose view anchors recoveries: always 0.  A logical
    schedule never crashes or isolates it. *)
val observer : t -> int

(** [crash_anchor t node] — the view at which [node] crashes (applies to
    its first incarnation only), if the schedule crashes it. *)
val crash_anchor : t -> int -> int option

(** [recover_anchor t node] — the observer view at which [node] is
    restarted, if scheduled. *)
val recover_anchor : t -> int -> int option

(** All (recover_view, node) pairs, sorted by view. *)
val recoveries : t -> (int * int) list

(** {2 Triggers}

    The two view-anchored rules each substrate applies between a node's
    events, together with the state that makes each fire once.  The
    simulator keeps one {!triggers} per run; a socket incarnation keeps its
    own (the observer is never crashed, so its incarnation is the run's). *)

type triggers

(** Nothing fired yet. *)
val triggers : t -> triggers

(** [crash_due tr ~node ~incarnation ~view] — does [node] crash now?  True
    exactly once per [tr]: the first time [node]'s first incarnation
    ([incarnation = 0]) is at or past its crash anchor.  A later
    incarnation never crashes. *)
val crash_due : triggers -> node:int -> incarnation:int -> view:int -> bool

(** [recoveries_due tr ~node ~view] — the recoveries the observer releases
    now, as [(index, node)] pairs in index order (the index is the
    recovery's position in {!recoveries}): when [node] is the {!observer},
    every recovery not released yet whose anchor is at most [view]; [[]]
    for any other node.  Each recovery is released once. *)
val recoveries_due : triggers -> node:int -> view:int -> (int * int) list

(** [cut t ~src ~src_view ~dst] — drop a frame from [src] to [dst] sent
    while [src]'s current view is [src_view]?  Self-delivery is never
    cut.  Nodes in no listed group share one implicit group, as in
    {!Overlay}. *)
val cut : t -> src:int -> src_view:int -> dst:int -> bool

(** Whether any destination could be cut for [src] at [src_view] — a
    cheap pre-test that lets a multicast stay a multicast outside
    partition windows. *)
val cut_any : t -> src:int -> src_view:int -> bool

(** The largest view mentioned by any anchor — runs should target enough
    blocks to progress well past it. *)
val last_anchor : t -> int

(** [random ~rng ~n] draws a schedule with exactly one crash/recover
    cycle and one single-victim partition window, shaped so the chain is
    a pure function of the protocol on both substrates:

    - victims are drawn from [1 .. n-1]; node 0 stays clean (it anchors
      recoveries and always sits in the majority group);
    - at any view at most one node is affected (windows are disjoint
      with slack between them), so the remaining [n - 1 >= n - f]
      correct nodes form a quorum and keep advancing regardless of
      timing;
    - partition groups are [{victim}] versus the rest, so the majority
      side retains a quorum and the minority side freezes (it cannot
      form a timeout certificate alone) until the window passes it by;
    - every anchor touching a victim — the crash anchor, the recover
      anchor and the window end — lands at least two views before that
      victim's next round-robin leader slot.  For recoveries and heals
      this leaves slack to catch up via Sync before proposing; for the
      crash it keeps the victim's dying event away from the view where
      it would send its optimistic proposal, whose presence would
      otherwise depend on how deliveries happened to batch.

    Requires [n >= 4].  The result is an ordinary {!Fault_schedule.t}
    (printable, parseable) whose times are view numbers. *)
val random : rng:Bft_sim.Rng.t -> n:int -> Fault_schedule.t

val pp : Format.formatter -> t -> unit
