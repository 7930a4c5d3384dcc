let quorum ~n =
  Bft_types.Validator_set.commit_quorum (Bft_types.Validator_set.make n)

let config kind ~n ~blocks =
  {
    (Bft_net.Tcp.default ~n ~target_blocks:blocks) with
    Bft_net.Tcp.leader_of =
      Bft_workload.Schedules.leader_of Bft_workload.Schedules.Round_robin ~n
        ~f':0;
    protocol_name = Protocol_kind.name kind;
  }

let run kind cfg =
  match kind with
  | Protocol_kind.Simple_moonshot ->
      Bft_net.Tcp.run (module Moonshot.Simple_node.Protocol) cfg
  | Protocol_kind.Pipelined_moonshot ->
      Bft_net.Tcp.run (module Moonshot.Pipelined_node.Protocol) cfg
  | Protocol_kind.Commit_moonshot ->
      Bft_net.Tcp.run (module Moonshot.Pipelined_node.Commit_protocol) cfg
  | Protocol_kind.Jolteon ->
      Bft_net.Tcp.run (module Jolteon.Jolteon_node.Protocol) cfg
  | Protocol_kind.Hotstuff ->
      Bft_net.Tcp.run (module Hotstuff.Hotstuff_node.Protocol) cfg

let check (result : Bft_net.Tcp.result) ~target =
  let open Bft_net.Tcp in
  (* A recovered node's commit log is not dense (pre-crash commits die with
     a process-mode incarnation, catch-up re-commits heights), so density
     is asserted only for nodes that never restarted. *)
  let node_problem nr =
    let top = List.fold_left (fun a c -> max a c.c_height) 0 nr.commits in
    if top < target then
      Some
        (Printf.sprintf "node %d topped out at height %d/%d" nr.id top target)
    else if nr.restarts > 0 then None
    else
      List.find_mapi
        (fun i c ->
          if c.c_height = i + 1 then None
          else
            Some
              (Printf.sprintf "node %d: commit %d has height %d, expected %d"
                 nr.id i c.c_height (i + 1)))
        nr.commits
  in
  let seen : (int, int * int64) Hashtbl.t = Hashtbl.create 64 in
  let fork nr =
    List.find_map
      (fun c ->
        match Hashtbl.find_opt seen c.c_height with
        | Some (id0, h0) when h0 <> c.c_hash ->
            Some
              (Printf.sprintf
                 "nodes %d and %d disagree at height %d: %Lx vs %Lx" id0 nr.id
                 c.c_height h0 c.c_hash)
        | Some _ -> None
        | None ->
            Hashtbl.add seen c.c_height (nr.id, c.c_hash);
            None)
      nr.commits
  in
  let nodes = Array.to_list result.nodes in
  let problem =
    if not result.reached_target then
      Some
        (Printf.sprintf "cluster did not reach %d blocks within the timeout"
           target)
    else
      match List.find_map node_problem nodes with
      | Some p -> Some p
      | None -> List.find_map fork nodes
  in
  match problem with Some p -> Error p | None -> Ok ()

let net_liveness (result : Bft_net.Tcp.result) ~delta =
  let open Bft_net.Tcp in
  let n = Array.length result.nodes in
  (* The monitor's GST is the last scheduled disruption as it actually
     happened on the wall clock: everything after it is the window the
     liveness bound speaks about. *)
  let gst =
    List.fold_left (fun a fe -> Float.max a fe.fe_time_ms) 0.
      result.fault_events
  in
  let mon = Bft_obs.Liveness.create ~n ~delta ~gst () in
  (* Replay in wall-time order; same-time ties resolve fault edges before
     commits and quorum milestones after individual commits, matching the
     order the simulator harness generates them in. *)
  let events = ref [] in
  let add t pri run = events := (t, pri, run) :: !events in
  List.iter
    (fun fe ->
      match fe.fe_kind with
      | Bft_obs.Trace.Crash ->
          add fe.fe_time_ms 0 (fun () ->
              Bft_obs.Liveness.note_crash mon ~node:fe.fe_node
                ~time:fe.fe_time_ms)
      | Bft_obs.Trace.Recover ->
          add fe.fe_time_ms 0 (fun () ->
              Bft_obs.Liveness.note_recover mon ~node:fe.fe_node
                ~time:fe.fe_time_ms)
      | _ -> ())
    result.fault_events;
  Array.iter
    (fun nr ->
      List.iter
        (fun c ->
          add c.c_time_ms 1 (fun () ->
              Bft_obs.Liveness.note_commit mon ~node:nr.id ~time:c.c_time_ms
                ~height:c.c_height))
        nr.commits)
    result.nodes;
  List.iter
    (fun (_, qc) ->
      add qc.c_time_ms 2 (fun () ->
          Bft_obs.Liveness.note_quorum_commit mon ~time:qc.c_time_ms
            ~height:qc.c_height ~hash:(Int64.to_int qc.c_hash)))
    (quorum_commits result ~quorum:(quorum ~n));
  List.iter
    (fun (_, _, run) -> run ())
    (List.sort
       (fun (t1, p1, _) (t2, p2, _) ->
         match Float.compare t1 t2 with 0 -> compare p1 p2 | c -> c)
       !events);
  (* Enforce the bound once, from the last disruption — provided the run
     actually covered that window. *)
  let bound = Bft_obs.Liveness.bound mon in
  if result.wall_ms >= gst +. bound then
    Bft_obs.Liveness.check mon ~since:gst ~now:(gst +. bound);
  Bft_obs.Liveness.report mon

let client_stats (result : Bft_net.Tcp.result) ~spec ~view_ms =
  let open Bft_net.Tcp in
  let n = Array.length result.nodes in
  let quorum_time : (int64, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, qc) -> Hashtbl.replace quorum_time qc.c_hash qc.c_time_ms)
    (quorum_commits result ~quorum:(quorum ~n));
  (* Replay node 0's chain (commit order = chain order) through a fresh
     ingestion site, each block once: the commit records carry the packed
     batch references, which is all the replayer needs to rebuild every
     command and its end-to-end latency. *)
  let ing = Bft_mempool.Ingest.create ~spec ~n ~view_ms () in
  List.iter
    (fun c ->
      match Hashtbl.find_opt quorum_time c.c_hash with
      | None -> ()
      | Some t ->
          Hashtbl.remove quorum_time c.c_hash;
          let payload =
            Bft_types.Payload.make ~id:c.c_payload_id
              ~size_bytes:c.c_payload_bytes
          in
          ignore (Bft_mempool.Ingest.on_quorum_commit ing ~payload ~time:t))
    result.nodes.(0).commits;
  Bft_mempool.Ingest.summary ing

type commit_id = { height : int; view : int; hash : int64 }

type net_run = {
  mode : Bft_net.Tcp.mode;
  chain : commit_id list;
  liveness : Bft_obs.Liveness.report option;
  clients : Bft_mempool.Ingest.summary option;
}

type crossval = {
  schedule : Bft_faults.Fault_schedule.t;
  blocks : int;
  sim_chain : commit_id list;
  sim_clients : Bft_mempool.Ingest.summary option;
  runs : net_run list;
  agree : bool;
}

let crossval_clients =
  {
    Bft_mempool.Spec.default with
    Bft_mempool.Spec.clients = 100_000;
    clock = Bft_mempool.Spec.Views;
    per_view = 32;
  }

let cross_validate ?(n = 4) ?(payload_bytes = 0) ?chaos_seed ?clients
    ~protocol ~blocks () =
  (match (clients, chaos_seed) with
  | Some { Bft_mempool.Spec.clock = Bft_mempool.Spec.Wall; _ }, _ ->
      invalid_arg
        "cross_validate: the client spec must use the Views ingest clock \
         (Wall-clock watermarks are substrate-dependent)"
  | Some _, Some _ ->
      invalid_arg
        "cross_validate: a fault schedule and client traffic do not combine"
  | _ -> ());
  let schedule, blocks =
    match chaos_seed with
    | None -> (Bft_faults.Fault_schedule.empty, blocks)
    | Some seed ->
        let schedule =
          Bft_faults.Logical.random ~rng:(Bft_sim.Rng.create seed) ~n
        in
        (* Run well past the last anchor so the recovered node's catch-up
           and the healed partition both sit inside the compared prefix. *)
        let lg = Bft_faults.Logical.of_schedule_exn ~n schedule in
        (schedule, max blocks (Bft_faults.Logical.last_anchor lg + 8))
  in
  let chaos = chaos_seed <> None in
  let prefix what commits =
    let chain = List.filteri (fun i _ -> i < blocks) commits in
    if List.length chain < blocks then
      failwith
        (Printf.sprintf "crossval: %s committed only %d/%d blocks" what
           (List.length chain) blocks);
    chain
  in
  (* Simulator: the happy-path local config, long enough for [blocks]
     commits at node 0 with room to spare (more under a schedule, whose
     dead-leader views stall for delta). *)
  let sim_acc = ref [] in
  let sim =
    Harness.run
      ~on_commit:(fun ~node b ->
        if node = 0 then
          sim_acc :=
            {
              height = b.Bft_types.Block.height;
              view = b.Bft_types.Block.view;
              hash = Bft_types.Hash.to_int64 b.Bft_types.Block.hash;
            }
            :: !sim_acc)
      {
        (Config.local protocol ~n) with
        Config.payload_bytes;
        faults = schedule;
        logical_faults = chaos;
        clients;
        duration_ms =
          (if chaos then 10_000. +. (float_of_int blocks *. 300.)
           else 5_000. +. (float_of_int blocks *. 200.));
      }
  in
  let sim_chain = prefix "simulator" (List.rev !sim_acc) in
  (* Sockets: same n, round-robin schedule, payloads and client stream;
     the default delta is large enough that localhost never times out. *)
  let net_run mode =
    let cfg =
      {
        (config protocol ~n ~blocks) with
        Bft_net.Tcp.mode;
        payload_bytes;
        clients;
      }
    in
    let cfg =
      match chaos_seed with
      | None -> cfg
      | Some seed ->
          {
            cfg with
            (* Views with a dead or partitioned leader stall for delta;
               keep it well above a paced view (~3 hops) but far below
               the fault-free 1 s so stalls stay cheap.  The link delay
               keeps view duration well above restart-and-redial time so
               a recovering incarnation never misses its leader slot. *)
            delta_ms = 500.;
            faults = schedule;
            fault_clock = Bft_net.Fault_plane.Views;
            fault_seed = seed;
            link_delay_ms = 20.;
          }
    in
    let what =
      match mode with
      | Bft_net.Tcp.Threads -> "TCP cluster (threads)"
      | Bft_net.Tcp.Processes -> "TCP cluster (processes)"
    in
    let result = run protocol cfg in
    (match check result ~target:blocks with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "crossval: %s: %s" what e));
    {
      mode;
      chain =
        prefix what
          (List.map
             (fun c ->
               {
                 height = c.Bft_net.Tcp.c_height;
                 view = c.Bft_net.Tcp.c_view;
                 hash = c.Bft_net.Tcp.c_hash;
               })
             result.Bft_net.Tcp.nodes.(0).Bft_net.Tcp.commits);
      liveness =
        Option.map
          (fun _ -> net_liveness result ~delta:cfg.Bft_net.Tcp.delta_ms)
          chaos_seed;
      clients =
        Option.map
          (fun spec ->
            client_stats result ~spec ~view_ms:cfg.Bft_net.Tcp.delta_ms)
          clients;
    }
  in
  let runs =
    List.map net_run
      (Bft_net.Tcp.Threads :: (if chaos then [ Bft_net.Tcp.Processes ] else []))
  in
  {
    schedule;
    blocks;
    sim_chain;
    sim_clients = sim.Harness.client_summary;
    runs;
    agree = List.for_all (fun r -> r.chain = sim_chain) runs;
  }
