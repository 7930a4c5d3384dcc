(** Runs the protocol suite over the live-network substrate ({!Bft_net.Tcp})
    and cross-validates it against the simulator.

    {!Harness} drives a protocol through the discrete-event simulator;
    this module drives the {e same} node modules over real localhost TCP
    sockets, dispatching on {!Protocol_kind.t} exactly like {!Harness.run}
    does.  It also hosts the substrate-equivalence check: on a fault-free
    schedule whose [delta] dwarfs localhost jitter, no timeout ever fires,
    so the committed chain is a pure function of the protocol — both
    substrates must produce the identical commit sequence, and
    {!cross_validate} asserts they do. *)

(** The commit quorum {!Bft_types.Validator_set.commit_quorum} ([2f + 1]
    with [f = (n - 1) / 3]) — the number of nodes whose commit makes a
    block final for latency accounting, as in the simulator's metrics. *)
val quorum : n:int -> int

(** [config kind ~n ~blocks] — a {!Bft_net.Tcp.config} wired for
    [kind]: round-robin leader schedule, the protocol's canonical name in
    the hello frame, [delta_ms] 1000 (no timeouts on localhost),
    ephemeral ports.  Override fields as usual with record update. *)
val config : Protocol_kind.t -> n:int -> blocks:int -> Bft_net.Tcp.config

(** Launch a cluster of the given protocol (see {!Bft_net.Tcp.run}). *)
val run : Protocol_kind.t -> Bft_net.Tcp.config -> Bft_net.Tcp.result

(** Post-run sanity assertions: the run reached its target, every node's
    top committed height is at least [target], a node that never
    restarted committed heights consecutively from 1, and no two nodes
    committed different hashes at the same height.  A recovered node's
    log is exempt from density: pre-crash commits die with a process-mode
    incarnation and catch-up re-commits heights.  Returns a
    human-readable reason on failure. *)
val check : Bft_net.Tcp.result -> target:int -> (unit, string) result

(** Post-hoc liveness audit of a socket run: replays the run's fault
    events, per-node commits and {!Bft_net.Tcp.quorum_commits} into a
    {!Bft_obs.Liveness} monitor in wall-time order, with the monitor's
    GST set to the last disruption.  If the run lasted past
    [gst + bound], enforces one {!Bft_obs.Liveness.check} over that
    window (raising [Violation] when commits stalled).  The returned
    {!Bft_obs.Liveness.report}'s [max_quorum_gap_ms] is the bounded
    commit-gap acceptance metric; [recoveries] carries per-crash
    time-to-catch-up. *)
val net_liveness :
  Bft_net.Tcp.result -> delta:float -> Bft_obs.Liveness.report

(** Post-hoc client-traffic accounting for a socket run whose config
    carried [clients = Some spec].  Rebuilds an ingestion site from the
    spec and replays node 0's committed chain through it (the commit
    records carry each block's packed batch reference), each block once
    at its {!Bft_net.Tcp.quorum_commits} time, found by hash.  The returned summary is the socket-side
    counterpart of {!Harness.run_result.client_summary}: admission and
    backpressure counters, client-perceived end-to-end latency
    percentiles, per-lane fairness and dissemination bytes.  [view_ms]
    converts view-slot submit times to milliseconds under the [Views]
    ingest clock — pass the run's [delta_ms]. *)
val client_stats :
  Bft_net.Tcp.result ->
  spec:Bft_mempool.Spec.t ->
  view_ms:float ->
  Bft_mempool.Ingest.summary

(** One commit as compared across substrates. *)
type commit_id = { height : int; view : int; hash : int64 }

(** One socket run of a cross-validation. *)
type net_run = {
  mode : Bft_net.Tcp.mode;
  chain : commit_id list;  (** Node 0's first [blocks] commits. *)
  liveness : Bft_obs.Liveness.report option;
      (** {!net_liveness}, when the run had a fault schedule. *)
  clients : Bft_mempool.Ingest.summary option;
      (** {!client_stats}, when the run carried client traffic. *)
}

type crossval = {
  schedule : Bft_faults.Fault_schedule.t;
      (** The drawn logical schedule (times are view numbers); empty when
          fault-free. *)
  blocks : int;  (** Compared prefix length. *)
  sim_chain : commit_id list;  (** Node 0's first [blocks] sim commits. *)
  sim_clients : Bft_mempool.Ingest.summary option;
      (** The simulator's client summary, when there is client traffic. *)
  runs : net_run list;  (** Threads, then processes under a schedule. *)
  agree : bool;  (** Every socket chain equals [sim_chain]. *)
}

(** The client spec the command line cross-validates with: 100k clients
    on the [Views] ingest clock, 32 commands per view. *)
val crossval_clients : Bft_mempool.Spec.t

(** [cross_validate ~protocol ~blocks ()] runs the same world on the
    simulator and on localhost TCP clusters ([n] defaults to 4) and
    compares node 0's first [blocks] commits as [(height, view, hash)]
    triples.  Every socket run passes {!check}.  The inputs pick the
    world:

    - fault-free (the default): one threads-mode cluster.  With [delta]
      far above localhost jitter no timeout fires, so the chain is a pure
      function of the protocol and any divergence is a codec or transport
      bug.
    - [chaos_seed]: a random logical fault schedule
      ({!Bft_faults.Logical.random} — one crash/recover cycle plus one
      partition window) replayed by the simulator under [logical_faults]
      and by a threads-mode and a process-mode cluster (the latter with a
      real [SIGKILL] and a WAL-file rebuild) under [fault_clock = Views].
      The compared prefix grows to [last_anchor + 8] commits so recovery
      and heal sit inside it; each socket run reports {!net_liveness}.
    - [clients]: the same seeded client stream on both substrates, with a
      client summary on each side.  Under the [Views] ingest clock a
      batch cut is a pure function of the view number, so chain agreement
      means both replicated the same mempool contents command-for-command.

    Raises [Invalid_argument] on a [Wall]-clock spec or on [chaos_seed]
    together with [clients], and [Failure] when a substrate fails to
    commit the prefix at all or a socket run fails {!check}. *)
val cross_validate :
  ?n:int ->
  ?payload_bytes:int ->
  ?chaos_seed:int ->
  ?clients:Bft_mempool.Spec.t ->
  protocol:Protocol_kind.t ->
  blocks:int ->
  unit ->
  crossval
