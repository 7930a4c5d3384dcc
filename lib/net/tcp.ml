open Bft_types
module W = Wire.W
module R = Wire.R
module FS = Bft_faults.Fault_schedule

let log_src = Logs.Src.create "moonshot.net" ~doc:"TCP transport backend"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Threads | Processes
type outcome = Completed | Timed_out

type config = {
  n : int;
  delta_ms : float;
  payload_bytes : int;
  target_blocks : int;
  timeout_ms : float;
  mode : mode;
  base_port : int option;
  trace : bool;
  protocol_name : string;
  faults : FS.t;
  fault_clock : Fault_plane.clock;
  fault_seed : int;
  link_delay_ms : float;
  wal_dir : string option;
  clients : Bft_mempool.Spec.t option;
}

let default ~n ~target_blocks =
  {
    n;
    delta_ms = 1000.;
    payload_bytes = 0;
    target_blocks;
    timeout_ms = 60_000.;
    mode = Threads;
    base_port = None;
    trace = false;
    protocol_name = "";
    faults = FS.empty;
    fault_clock = Fault_plane.Wall_ms;
    fault_seed = 17;
    link_delay_ms = 0.;
    wal_dir = None;
    clients = None;
  }

type commit = {
  c_height : int;
  c_view : int;
  c_hash : int64;
  c_time_ms : float;
  c_payload_id : int;
  c_payload_bytes : int;
}

type proposal = { p_height : int; p_hash : int64; p_time_ms : float }

type node_result = {
  id : int;
  commits : commit list;
  proposals : proposal list;
  trace_lines : string list;
  decode_errors : int;
  messages_sent : int;
  bytes_sent : int;
  bytes_heal : int;
  reconnects : int;
  restarts : int;
  malformed_by_peer : int array;
  dropped_by_peer : int array;
}

type fault_event = {
  fe_time_ms : float;
  fe_node : int;
  fe_kind : Bft_obs.Trace.fault;
}

type result = {
  nodes : node_result array;
  wall_ms : float;
  reached_target : bool;
  outcome : outcome;
  fault_events : fault_event list;
}

(* --- transport-level hello frame (tag 0x00) ------------------------------- *)

let hello_tag = 0x00

let encode_hello ~id ~n ~protocol =
  Wire.encode_body ~tag:hello_tag (fun w ->
      W.uvar w id;
      W.uvar w n;
      W.bytes w protocol)

let decode_hello body =
  Wire.decode_body body (fun tag r ->
      if tag <> hello_tag then Wire.bad_tag tag;
      let id = R.uvar r in
      let n = R.uvar r in
      let protocol = R.bytes r in
      (id, n, protocol))

(* --- result channel (incarnation -> coordinator report pipe) --------------- *)

(* A result is a sequence of frames, each within the codec's limits (at most
   65,536 list items, 16 MiB): runs of commits (tag 1), proposals (tag 2)
   and trace lines (tag 3) in order, then one closing frame (tag 4) with the
   scalar fields. *)
let chunk_items = 4096
let chunk_bytes = 1 lsl 20

(* Split [xs] into runs of at most [chunk_items] elements and [chunk_bytes]
   by [weight]; an element heavier than that gets a run of its own. *)
let chunks weight xs =
  let rec go acc run items bytes = function
    | [] -> List.rev (if run = [] then acc else List.rev run :: acc)
    | x :: rest ->
        let b = weight x in
        if run <> [] && (items = chunk_items || bytes + b > chunk_bytes) then
          go (List.rev run :: acc) [ x ] 1 b rest
        else go acc (x :: run) (items + 1) (bytes + b) rest
  in
  go [] [] 0 0 xs

type chunk =
  | Commits of commit list
  | Proposals of proposal list
  | Trace of string list
  | Close of node_result

let write_result fd r =
  let send tag enc = Wire.write_all fd (Wire.frame (Wire.encode_body ~tag enc)) in
  let send_runs tag weight enc xs =
    List.iter (fun run -> send tag (fun w -> W.list w enc run)) (chunks weight xs)
  in
  send_runs 1 (fun _ -> 0)
    (fun w c ->
      W.uvar w c.c_height;
      W.uvar w c.c_view;
      W.u64 w c.c_hash;
      W.f64 w c.c_time_ms;
      (* Zigzag: equivocation payloads have negative ids. *)
      W.svar w c.c_payload_id;
      W.uvar w c.c_payload_bytes)
    r.commits;
  send_runs 2 (fun _ -> 0)
    (fun w p ->
      W.uvar w p.p_height;
      W.u64 w p.p_hash;
      W.f64 w p.p_time_ms)
    r.proposals;
  send_runs 3 String.length W.bytes r.trace_lines;
  send 4 (fun w ->
      W.uvar w r.id;
      W.uvar w r.decode_errors;
      W.uvar w r.messages_sent;
      W.uvar w r.bytes_sent;
      W.uvar w r.bytes_heal;
      W.uvar w r.reconnects;
      W.uvar w r.restarts;
      W.list w W.uvar (Array.to_list r.malformed_by_peer);
      W.list w W.uvar (Array.to_list r.dropped_by_peer))

let decode_chunk tag r =
  match tag with
  | 1 ->
      Commits
        (R.list r (fun r ->
             let c_height = R.uvar r in
             let c_view = R.uvar r in
             let c_hash = R.u64 r in
             let c_time_ms = R.f64 r in
             let c_payload_id = R.svar r in
             let c_payload_bytes = R.uvar r in
             { c_height; c_view; c_hash; c_time_ms; c_payload_id; c_payload_bytes }))
  | 2 ->
      Proposals
        (R.list r (fun r ->
             let p_height = R.uvar r in
             let p_hash = R.u64 r in
             let p_time_ms = R.f64 r in
             { p_height; p_hash; p_time_ms }))
  | 3 -> Trace (R.list r R.bytes)
  | 4 ->
      let id = R.uvar r in
      let decode_errors = R.uvar r in
      let messages_sent = R.uvar r in
      let bytes_sent = R.uvar r in
      let bytes_heal = R.uvar r in
      let reconnects = R.uvar r in
      let restarts = R.uvar r in
      let malformed_by_peer = Array.of_list (R.list r R.uvar) in
      let dropped_by_peer = Array.of_list (R.list r R.uvar) in
      Close
        {
          id;
          commits = [];
          proposals = [];
          trace_lines = [];
          decode_errors;
          messages_sent;
          bytes_sent;
          bytes_heal;
          reconnects;
          restarts;
          malformed_by_peer;
          dropped_by_peer;
        }
  | tag -> Wire.bad_tag tag

let read_result fd =
  let rec go commits proposals lines =
    match Wire.read_frame fd with
    | Error `Closed -> Error "channel closed before the closing frame"
    | Error (`Frame_error e) -> Error (Wire.error_to_string e)
    | Ok body -> (
        match Wire.decode_body body decode_chunk with
        | Error e -> Error (Wire.error_to_string e)
        | Ok (Commits cs) -> go (cs :: commits) proposals lines
        | Ok (Proposals ps) -> go commits (ps :: proposals) lines
        | Ok (Trace ls) -> go commits proposals (ls :: lines)
        | Ok (Close r) ->
            let all runs = List.concat (List.rev runs) in
            Ok
              {
                r with
                commits = all commits;
                proposals = all proposals;
                trace_lines = all lines;
              })
  in
  try go [] [] [] with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* --- one validator incarnation -------------------------------------------- *)

let now_ms t0 = (Unix.gettimeofday () -. t0) *. 1000.
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let wal_path dir id = Filename.concat dir (Printf.sprintf "node-%d.wal" id)

(* An incarnation's sockets.  Whoever runs the incarnation opens them: the
   coordinator for a thread, so that it can tear them down; the child for a
   fork, since a forked child keeps only the calling thread and must start
   its own sender. *)
type sockets = {
  listener : Unix.file_descr;
  cm : Conn_manager.t;
  mutable inbound : (Unix.file_descr * int) list;  (* fd, sender id *)
}

let open_sockets cfg ~id ~t0 ~listener ~ports ~plane =
  let hello =
    Wire.frame (encode_hello ~id ~n:cfg.n ~protocol:cfg.protocol_name)
  in
  let backoff_cap_ms =
    (* Under the logical clock the whole run is paced by [link_delay_ms];
       a recovered peer must be redialed well within its catch-up slack,
       so the backoff cap shrinks with the pacing. *)
    match Fault_plane.clock plane with
    | Fault_plane.Views -> Float.max 25. (cfg.link_delay_ms *. 2.)
    | Fault_plane.Wall_ms -> 500.
  in
  let cm =
    Conn_manager.create ~backoff_cap_ms ~n:cfg.n ~id ~ports ~hello
      ~now_ms:(fun () -> now_ms t0)
      ~plane ()
  in
  { listener; cm; inbound = [] }

(* Closing the inbound side first unblocks every peer sender that might be
   mid-write to us, then our own sender is reaped — or, with [~force],
   closed under it without a join.  A crashed incarnation also closes its
   listener: frames sent while the node is down must be lost, not parked in
   an accept backlog for the next incarnation to read. *)
let close_sockets ?(force = false) s =
  List.iter (fun (fd, _) -> close_quiet fd) s.inbound;
  close_quiet s.listener;
  if force then Conn_manager.force_close s.cm else Conn_manager.shutdown s.cm

(* How one incarnation ended: stopped (the coordinator's 'S', the hard
   deadline, an executor exception) or crashed by the fault plane.  The next
   incarnation rebuilds from the WAL file either way. *)
type exit_reason = Stopped | Crashed

(* A one-shot order or report on a pipe whose reader may be gone, which
   then has nothing left to hear. *)
let write_quiet fd s = try Wire.write_all fd s with Unix.Unix_error _ -> ()

let node_main (type m) (module P : Protocol_intf.S with type msg = m)
    (cfg : config) ~id ~incarnation ~t0 ~(sockets : sockets)
    ~(plane : Fault_plane.t) ~(ctl : Unix.file_descr)
    ~(report : Unix.file_descr) : node_result * exit_reason =
  let module H = Bft_host.Node_host.Make (P) in
  let commits = ref [] and done_sent = ref false in
  let proposals = ref [] in
  let trace =
    if cfg.trace then Bft_obs.Trace.create () else Bft_obs.Trace.disabled ()
  in
  let malformed = Array.make cfg.n 0 in
  let crashing = ref false and stopping = ref false in
  (* Client-traffic ingestion: each validator rebuilds the identical seeded
     arrival stream locally, so a leader's watermark observation is the only
     nondeterminism a batch carries — and under the [Views] spec clock even
     that is a pure function of the view, making socket chains bit-identical
     to simulator chains.  Latency accounting happens post-hoc in the
     coordinator (Net_harness.client_stats), against [quorum_commits]. *)
  let payload =
    match cfg.clients with
    | Some spec ->
        Bft_host.Node_host.Clients
          (Bft_mempool.Ingest.create ~spec ~n:cfg.n ~view_ms:cfg.delta_ms ())
    | None -> Bft_host.Node_host.Fixed cfg.payload_bytes
  in
  let host =
    H.create ~n:cfg.n ~delta:cfg.delta_ms
      ~leader_of:(Validator_set.round_robin (Validator_set.make cfg.n))
      ~payload ~trace ~wal:true
      ~now:(fun () -> now_ms t0)
      ~on_commit:(fun _ b ->
        commits :=
          {
            c_height = b.Block.height;
            c_view = b.Block.view;
            c_hash = Hash.to_int64 b.Block.hash;
            c_time_ms = now_ms t0;
            c_payload_id = b.Block.payload.Payload.id;
            c_payload_bytes = b.Block.payload.Payload.size_bytes;
          }
          :: !commits;
        (* Height-based, not count-based: a recovered incarnation starts
           from an empty commit log and reaches the target by syncing,
           whether or not every historic height is replayed through
           [on_commit]. *)
        if b.Block.height >= cfg.target_blocks && not !done_sent then begin
          done_sent := true;
          write_quiet report "D"
        end)
      ~on_propose:(fun _ b ->
        proposals :=
          {
            p_height = b.Block.height;
            p_hash = Hash.to_int64 b.Block.hash;
            p_time_ms = now_ms t0;
          }
          :: !proposals)
      ()
  in
  let wal_file = Option.map (fun d -> wal_path d id) cfg.wal_dir in
  let wal_blob =
    match wal_file with
    | Some path when incarnation > 0 && Sys.file_exists path -> (
        try Some (read_file path) with Sys_error _ -> None)
    | _ -> None
  in
  Option.iter (H.restore_wal host id) wal_blob;
  let listener = sockets.listener and cm = sockets.cm in
  (* Wall-clock timers; touched only by the executor thread. *)
  let timers : (float * bool ref * (unit -> unit)) list ref = ref [] in
  let set_timer delay f =
    let cancelled = ref false in
    timers := (now_ms t0 +. delay, cancelled, f) :: !timers;
    fun () -> cancelled := true
  in
  let next_deadline () =
    List.fold_left
      (fun acc (d, c, _) -> if !c then acc else Float.min acc d)
      infinity !timers
  in
  let selfq : m Queue.t = Queue.create () in
  let view () = H.view host id in
  (* Everything the fault plane anchors on protocol state happens here,
     between events: WAL snapshot persistence, the node's own logical
     crash trigger, and (on the observer) logical recovery orders. *)
  let last_wal = ref (Option.value wal_blob ~default:"") in
  let persist_wal () =
    match wal_file with
    | None -> ()
    | Some path ->
        let s = P.wal_encode (H.wal host id) in
        if not (String.equal s !last_wal) then begin
          last_wal := s;
          try
            let tmp = path ^ ".tmp" in
            let oc = open_out_bin tmp in
            output_string oc s;
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ ->
            Log.err (fun m -> m "node %d: cannot persist WAL" id)
        end
  in
  let triggers =
    Option.map Bft_faults.Logical.triggers (Fault_plane.logical plane)
  in
  let post_event () =
    persist_wal ();
    match triggers with
    | None -> ()
    | Some tr ->
        let view = view () in
        if Bft_faults.Logical.crash_due tr ~node:id ~incarnation ~view then
          crashing := true;
        List.iter
          (fun (idx, _node) ->
            write_quiet report
              (Printf.sprintf "O%c" (Char.chr (idx land 0xff))))
          (Bft_faults.Logical.recoveries_due tr ~node:id ~view)
  in
  let link =
    {
      Bft_host.Node_host.send =
        (fun dst msg ->
          if dst = id then Queue.push msg selfq
          else
            Conn_manager.send cm ~dst ~src_view:(view ())
              (Wire.frame (P.encode_msg msg)));
      multicast =
        (fun msg ->
          let frame = Wire.frame (P.encode_msg msg) in
          let src_view = view () in
          for dst = 0 to cfg.n - 1 do
            if dst = id then Queue.push msg selfq
            else Conn_manager.send cm ~dst ~src_view frame
          done);
      set_timer;
    }
  in
  let close_conn fd =
    sockets.inbound <- List.filter (fun (fd', _) -> fd' <> fd) sockets.inbound;
    close_quiet fd
  in
  (try
     let node = H.spawn host ~link id in
     let deliver ~src ~bytes msg =
       H.delivered host ~src ~dst:id ~bytes msg;
       P.handle node ~src msg;
       post_event ()
     in
     let rec drain_self () =
       if not !crashing then
         match Queue.take_opt selfq with
         | None -> ()
         | Some msg ->
             let bytes =
               if cfg.trace then String.length (P.encode_msg msg) + 4 else 0
             in
             deliver ~src:id ~bytes msg;
             drain_self ()
     in
     let fire_due () =
       let now = now_ms t0 in
       let due, rest =
         List.partition (fun (d, c, _) -> (not !c) && d <= now) !timers
       in
       timers := List.filter (fun (_, c, _) -> not !c) rest;
       List.iter
         (fun (_, _, f) ->
           if not !crashing then begin
             f ();
             post_event ()
           end)
         (List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) due)
     in
     let accept_conn () =
       match Unix.accept listener with
       | exception Unix.Unix_error _ -> ()
       | fd, _ -> (
           (try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ());
           match Wire.read_frame fd with
           | Ok body -> (
               match decode_hello body with
               | Ok (src, n', proto)
                 when src >= 0 && src < cfg.n && src <> id && n' = cfg.n
                      && String.equal proto cfg.protocol_name ->
                   sockets.inbound <- (fd, src) :: sockets.inbound
               | Ok _ | Error _ -> close_quiet fd)
           | Error _ | (exception Unix.Unix_error _) -> close_quiet fd)
     in
     (* 'K' crashes this incarnation; 'S', or the coordinator's end of the
        pipe closing, stops it. *)
     let handle_ctl () =
       let buf = Bytes.create 1 in
       match Unix.read ctl buf 0 1 with
       | 1 when Bytes.get buf 0 = 'K' -> crashing := true
       | _ | (exception Unix.Unix_error _) -> stopping := true
     in
     P.start node;
     post_event ();
     drain_self ();
     let hard_deadline = cfg.timeout_ms +. 5000. in
     (* Wall-clock crashes land at event-loop boundaries, never inside a
        handler, so the WAL file on disk is always a post-handler
        snapshot. *)
     while not (!stopping || !crashing) do
       fire_due ();
       drain_self ();
       if not !crashing then begin
         if now_ms t0 > hard_deadline then stopping := true
         else begin
           let timeout =
             let d = Float.min (next_deadline ()) hard_deadline in
             Float.max 0. ((d -. now_ms t0) /. 1000.)
           in
           let fds = ctl :: listener :: List.map fst sockets.inbound in
           match Unix.select fds [] [] timeout with
           | exception Unix.Unix_error (EINTR, _, _) -> ()
           | exception Unix.Unix_error (EBADF, _, _) ->
               (* A force-stop closed our sockets under us. *)
               stopping := true
           | ready, _, _ ->
               List.iter
                 (fun fd ->
                   if !crashing || !stopping then ()
                   else if fd = ctl then handle_ctl ()
                   else if fd = listener then accept_conn ()
                   else
                     match List.assoc_opt fd sockets.inbound with
                     | None -> ()
                     | Some src -> (
                         match Wire.read_frame fd with
                         | Ok body -> (
                             match P.decode_msg body with
                             | Ok msg ->
                                 deliver ~src
                                   ~bytes:(String.length body + 4)
                                   msg;
                                 drain_self ()
                             | Error reason ->
                                 malformed.(src) <- malformed.(src) + 1;
                                 Log.debug (fun m ->
                                     m "node %d: dropped frame from %d: %s" id
                                       src reason))
                         | Error `Closed -> close_conn fd
                         | Error (`Frame_error e) ->
                             malformed.(src) <- malformed.(src) + 1;
                             Log.debug (fun m ->
                                 m "node %d: framing error from %d: %s" id src
                                   (Wire.error_to_string e));
                             close_conn fd
                         | exception Unix.Unix_error _ -> close_conn fd))
                 ready
         end
       end
     done
   with exn ->
     Log.err (fun m ->
         m "node %d: executor died: %s" id (Printexc.to_string exn)));
  if !crashing then begin
    (* The simulator treats every send a handler issued before the crash
       point as already on the wire; drain the sender queue (including
       paced frames) before dying so the socket run agrees. *)
    ignore
      (Conn_manager.flush cm
         ~timeout_s:(0.25 +. (3. *. cfg.link_delay_ms /. 1000.)));
    persist_wal ()
  end;
  close_sockets sockets;
  let st = Conn_manager.stats cm in
  Array.iteri
    (fun peer m ->
      let d = st.Conn_manager.dropped.(peer) in
      if peer <> id && (m > 0 || d > 0) then
        Bft_obs.Trace.emit trace
          {
            Bft_obs.Trace.time = now_ms t0;
            node = id;
            kind =
              Bft_obs.Trace.Link_report { peer; malformed = m; dropped = d };
          })
    malformed;
  let r =
    {
      id;
      commits = List.rev !commits;
      proposals = List.rev !proposals;
      trace_lines =
        List.map Bft_obs.Trace.event_to_json (Bft_obs.Trace.events trace);
      decode_errors = Array.fold_left ( + ) 0 malformed;
      messages_sent = st.Conn_manager.messages_sent;
      bytes_sent = st.Conn_manager.bytes_sent;
      bytes_heal = st.Conn_manager.bytes_heal;
      reconnects = st.Conn_manager.reconnects;
      restarts = incarnation;
      malformed_by_peer = Array.copy malformed;
      dropped_by_peer = st.Conn_manager.dropped;
    }
  in
  (r, if !crashing then Crashed else Stopped)

(* Run one incarnation, then report its result and close its pipe ends.  A
   crashed child dies by [SIGKILL] with no farewell — its volatile state and
   result die with it, only the WAL file survives — while a crashed thread
   reports its result like a stopped one. *)
let incarnation_main (type m) (module P : Protocol_intf.S with type msg = m)
    cfg ~id ~incarnation ~t0 ~sockets ~plane ~ctl ~report =
  let r, reason =
    node_main
      (module P : Protocol_intf.S with type msg = m)
      cfg ~id ~incarnation ~t0 ~sockets ~plane ~ctl ~report
  in
  if reason = Crashed && cfg.mode = Processes then
    Unix.kill (Unix.getpid ()) Sys.sigkill;
  (try
     Wire.write_all report "R";
     write_result report r
   with e ->
     Log.err (fun m ->
         m "node %d: cannot report its result: %s" id (Printexc.to_string e)));
  close_quiet report;
  close_quiet ctl

(* --- coordinator ------------------------------------------------------------ *)

let make_listener ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     close_quiet fd;
     raise e);
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, actual) -> (fd, actual)
  | _ -> assert false

let validate cfg =
  if cfg.n < 1 then invalid_arg "Tcp.run: n < 1";
  if cfg.target_blocks < 1 then invalid_arg "Tcp.run: target_blocks < 1";
  if cfg.timeout_ms <= 0. then invalid_arg "Tcp.run: non-positive timeout";
  if cfg.link_delay_ms < 0. then invalid_arg "Tcp.run: negative link delay";
  (match cfg.base_port with
  | Some p when p < 1 || p + cfg.n > 65536 ->
      invalid_arg "Tcp.run: port range out of bounds"
  | _ -> ());
  if not (FS.is_empty cfg.faults) then
    FS.validate ~n:cfg.n
      ~f:((cfg.n - 1) / 3)
      ~byzantine:[] cfg.faults

let sort_fault_log log =
  List.stable_sort
    (fun a b -> Float.compare a.fe_time_ms b.fe_time_ms)
    (List.rev log)

let merge_incarnations ~n ~id ~restarts rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sum_arr f =
    let acc = Array.make n 0 in
    List.iter
      (fun r ->
        Array.iteri (fun j v -> if j < n then acc.(j) <- acc.(j) + v) (f r))
      rs;
    acc
  in
  {
    id;
    commits = List.concat_map (fun r -> r.commits) rs;
    proposals = List.concat_map (fun r -> r.proposals) rs;
    trace_lines = List.concat_map (fun r -> r.trace_lines) rs;
    decode_errors = sum (fun r -> r.decode_errors);
    messages_sent = sum (fun r -> r.messages_sent);
    bytes_sent = sum (fun r -> r.bytes_sent);
    bytes_heal = sum (fun r -> r.bytes_heal);
    reconnects = sum (fun r -> r.reconnects);
    restarts;
    malformed_by_peer = sum_arr (fun r -> r.malformed_by_peer);
    dropped_by_peer = sum_arr (fun r -> r.dropped_by_peer);
  }

(* One running incarnation as the coordinator sees it: how it runs, the
   write end of its control pipe ('K' = crash, 'S' = stop) and the read end
   of its report pipe ('D' = target reached, 'O' idx = the observer ordered
   logical recovery [idx], 'R' = a result follows; EOF = the incarnation is
   over). *)
type backend = Thread of Thread.t * sockets | Child of int

type live = { backend : backend; ctl : Unix.file_descr; rep : Unix.file_descr }
type state = Running of live | Down | Exited

type member = {
  mutable state : state;
  mutable spawns : int;
  mutable target_met : bool;
  mutable kill_sent : bool;
  mutable recover_pending : bool;
  mutable results : node_result list;  (* newest first *)
}

(* How long stopped incarnations get to report before they are forced. *)
let stop_grace_s = 5.

let coordinate (type m) (module P : Protocol_intf.S with type msg = m) cfg
    ~(listeners : (Unix.file_descr * int) array) ~ports ~plane ~t0 =
  let members =
    Array.init cfg.n (fun _ ->
        {
          state = Down;
          spawns = 0;
          target_met = false;
          kill_sent = false;
          recover_pending = false;
          results = [];
        })
  in
  let fault_log = ref [] in
  let log_fault node fe_kind =
    fault_log := { fe_time_ms = now_ms t0; fe_node = node; fe_kind } :: !fault_log
  in
  (* Initial listeners the coordinator has not handed over yet: a forked
     child closes them, and every other node's pipe ends. *)
  let held = Array.map (fun (fd, _) -> Some fd) listeners in
  let spawn i listener =
    let m = members.(i) in
    let incarnation = m.spawns in
    let ctl_r, ctl_w = Unix.pipe () in
    let rep_r, rep_w = Unix.pipe () in
    let body sockets =
      incarnation_main
        (module P : Protocol_intf.S with type msg = m)
        cfg ~id:i ~incarnation ~t0 ~sockets ~plane ~ctl:ctl_r ~report:rep_w
    in
    let backend =
      match cfg.mode with
      | Threads ->
          let sockets = open_sockets cfg ~id:i ~t0 ~listener ~ports ~plane in
          Thread (Thread.create body sockets, sockets)
      | Processes -> (
          match Unix.fork () with
          | 0 ->
              close_quiet ctl_w;
              close_quiet rep_r;
              Array.iter (Option.iter close_quiet) held;
              Array.iter
                (fun m ->
                  match m.state with
                  | Running l ->
                      close_quiet l.ctl;
                      close_quiet l.rep
                  | Down | Exited -> ())
                members;
              (try body (open_sockets cfg ~id:i ~t0 ~listener ~ports ~plane)
               with e ->
                 Log.err (fun f ->
                     f "node %d: incarnation died: %s" i (Printexc.to_string e)));
              Unix._exit 0
          | pid ->
              close_quiet ctl_r;
              close_quiet rep_w;
              close_quiet listener;
              Child pid)
    in
    m.spawns <- m.spawns + 1;
    m.target_met <- false;
    m.kill_sent <- false;
    m.state <- Running { backend; ctl = ctl_w; rep = rep_r }
  in
  let respawn i =
    match make_listener ~port:ports.(i) with
    | fd, _ ->
        log_fault i Bft_obs.Trace.Recover;
        spawn i fd
    | exception e ->
        Log.err (fun f ->
            f "node %d: cannot rebind port %d for recovery: %s" i ports.(i)
              (Printexc.to_string e));
        members.(i).state <- Exited
  in
  let order_recovery i =
    let m = members.(i) in
    match m.state with
    | Down -> respawn i
    | Running _ -> m.recover_pending <- true
    | Exited -> ()
  in
  let stopping = ref false in
  let logical = Fault_plane.logical plane in
  let crash_anchored i =
    Option.bind logical (fun lg -> Bft_faults.Logical.crash_anchor lg i) <> None
  in
  let recoveries =
    Option.fold ~none:[] ~some:Bft_faults.Logical.recoveries logical
  in
  (* EOF: the incarnation is over.  Before the stop phase it crashed if a
     crash was ordered or anchored for it; otherwise it is gone for good. *)
  let finish i l =
    close_quiet l.ctl;
    close_quiet l.rep;
    (match l.backend with
    | Thread (th, _) -> Thread.join th
    | Child pid -> ( try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
    let m = members.(i) in
    if
      (not !stopping)
      && (m.kill_sent
         || (m.spawns = 1 && crash_anchored i))
    then begin
      m.state <- Down;
      log_fault i Bft_obs.Trace.Crash;
      if m.recover_pending then begin
        m.recover_pending <- false;
        respawn i
      end
    end
    else m.state <- Exited
  in
  let on_report i l =
    let buf = Bytes.create 1 in
    let byte () =
      match Unix.read l.rep buf 0 1 with
      | 0 -> None
      | _ -> Some (Bytes.get buf 0)
      | exception Unix.Unix_error _ -> None
    in
    match byte () with
    | None -> finish i l
    | Some 'D' -> members.(i).target_met <- true
    | Some 'O' -> (
        match byte () with
        | None -> finish i l
        | Some idx ->
            if not !stopping then
              match List.nth_opt recoveries (Char.code idx) with
              | Some (_, node) -> order_recovery node
              | None -> ())
    | Some 'R' -> (
        match read_result l.rep with
        | Ok r -> members.(i).results <- r :: members.(i).results
        | Error reason ->
            Log.err (fun f -> f "node %d: unreadable result (%s)" i reason);
            finish i l)
    | Some _ -> ()
  in
  let timeline = ref (Fault_plane.wall_timeline plane) in
  let fire_due_wall () =
    let now = now_ms t0 in
    let rec go () =
      match !timeline with
      | (at, ev) :: rest when at <= now ->
          timeline := rest;
          (match ev with
          | Fault_plane.Wall_crash node -> (
              let m = members.(node) in
              match m.state with
              | Running l when not m.kill_sent ->
                  m.kill_sent <- true;
                  write_quiet l.ctl "K"
              | _ -> ())
          | Fault_plane.Wall_recover node -> order_recovery node
          | Fault_plane.Wall_edge f -> log_fault (-1) f);
          go ()
      | _ -> ()
    in
    go ()
  in
  let running () =
    List.concat
      (List.init cfg.n (fun i ->
           match members.(i).state with
           | Running l -> [ (i, l) ]
           | Down | Exited -> []))
  in
  (* Block until the next report, wall-clock fault event or [until]; go on
     while [busy ()]. *)
  let rec pump ~until busy =
    if busy () && Unix.gettimeofday () < until then begin
      if not !stopping then fire_due_wall ();
      let next_event =
        match !timeline with
        | (at, _) :: _ when not !stopping -> t0 +. (at /. 1000.)
        | _ -> infinity
      in
      let live = running () in
      let timeout =
        Float.max 0. (Float.min until next_event -. Unix.gettimeofday ())
      in
      (match Unix.select (List.map (fun (_, l) -> l.rep) live) [] [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun (i, l) ->
              (* An earlier report in this round may have ended it. *)
              match members.(i).state with
              | Running l' when l' == l && List.mem l.rep ready -> on_report i l
              | _ -> ())
            live);
      pump ~until busy
    end
  in
  Array.iteri
    (fun i (fd, _) ->
      held.(i) <- None;
      spawn i fd)
    listeners;
  pump
    ~until:(t0 +. (cfg.timeout_ms /. 1000.))
    (fun () ->
      Array.exists
        (fun m ->
          match m.state with
          | Running _ -> not m.target_met
          | Down -> true
          | Exited -> false)
        members);
  let reached = Array.for_all (fun m -> m.target_met) members in
  stopping := true;
  let any_running () = running () <> [] in
  let grace s = pump ~until:(Unix.gettimeofday () +. s) any_running in
  List.iter (fun (_, l) -> write_quiet l.ctl "S") (running ());
  grace stop_grace_s;
  (* Force-stop what did not exit: a thread's sockets are closed under it,
     a child gets SIGTERM and then SIGKILL.  Needing it means Timed_out. *)
  let forced = any_running () in
  if forced then begin
    List.iter
      (fun (_, l) ->
        match l.backend with
        | Thread (_, s) -> close_sockets ~force:true s
        | Child pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()))
      (running ());
    grace 0.5;
    List.iter
      (fun (i, l) ->
        match l.backend with
        | Child pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        | Thread _ ->
            Log.err (fun f -> f "node %d: executor survived its teardown" i))
      (running ());
    grace 1.
  end;
  {
    nodes =
      Array.mapi
        (fun i m ->
          merge_incarnations ~n:cfg.n ~id:i ~restarts:(m.spawns - 1)
            (List.rev m.results))
        members;
    wall_ms = now_ms t0;
    reached_target = reached;
    outcome = (if forced then Timed_out else Completed);
    fault_events = sort_fault_log !fault_log;
  }

(* --- entry point ----------------------------------------------------------- *)

let remove_wal_files dir ~n =
  for i = 0 to n - 1 do
    let p = wal_path dir i in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ p; p ^ ".tmp" ]
  done

let run (type m) (module P : Protocol_intf.S with type msg = m) cfg =
  validate cfg;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let plane =
    Fault_plane.compile ~n:cfg.n ~clock:cfg.fault_clock ~seed:cfg.fault_seed
      ~link_delay_ms:cfg.link_delay_ms
      ~heal_bound_ms:(Bft_obs.Liveness.default_k *. cfg.delta_ms)
      cfg.faults
  in
  (* A recovered node is rebuilt from its WAL file, so a schedule that
     crashes anyone needs a WAL directory: unless the caller named one, a
     per-process temp directory, removed again when the run ends. *)
  let own_wal_dir = cfg.wal_dir = None && FS.crash_count cfg.faults > 0 in
  let cfg =
    if own_wal_dir then
      {
        cfg with
        wal_dir =
          Some
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "moonshot-wal-%d" (Unix.getpid ())));
      }
    else cfg
  in
  Option.iter
    (fun d ->
      (try Unix.mkdir d 0o700 with Unix.Unix_error _ -> ());
      remove_wal_files d ~n:cfg.n)
    cfg.wal_dir;
  let listeners =
    Array.init cfg.n (fun i ->
        make_listener
          ~port:(match cfg.base_port with None -> 0 | Some b -> b + i))
  in
  let ports = Array.map snd listeners in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      match cfg.wal_dir with
      | Some d when own_wal_dir -> (
          remove_wal_files d ~n:cfg.n;
          try Unix.rmdir d with Unix.Unix_error _ -> ())
      | _ -> ())
    (fun () ->
      coordinate
        (module P : Protocol_intf.S with type msg = m)
        cfg ~listeners ~ports ~plane ~t0)

(* --- post-hoc aggregation -------------------------------------------------- *)

let quorum_commits result ~quorum =
  let tbl : (int64, (int * commit) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nr ->
      List.iter
        (fun c ->
          let prev =
            Option.value (Hashtbl.find_opt tbl c.c_hash) ~default:[]
          in
          (* A recovered node may re-commit a block it already committed
             before crashing; count each node once, at its earliest. *)
          match List.assoc_opt nr.id prev with
          | Some c0 when c0.c_time_ms <= c.c_time_ms -> ()
          | _ ->
              Hashtbl.replace tbl c.c_hash
                ((nr.id, c) :: List.remove_assoc nr.id prev))
        nr.commits)
    result.nodes;
  Hashtbl.fold
    (fun _hash entries acc ->
      if List.length entries >= quorum then
        let sorted =
          List.sort
            (fun (_, a) (_, b) -> Float.compare a.c_time_ms b.c_time_ms)
            entries
        in
        List.nth sorted (quorum - 1) :: acc
      else acc)
    tbl []

let t_of_line line =
  try Scanf.sscanf line "{\"t\":%f" (fun t -> t) with _ -> 0.

let merged_trace result ~quorum =
  let tagged =
    Array.fold_left
      (fun acc nr ->
        List.fold_left
          (fun acc line -> (t_of_line line, nr.id, line) :: acc)
          acc nr.trace_lines)
      [] result.nodes
  in
  let line time node kind =
    (time, node, Bft_obs.Trace.event_to_json { Bft_obs.Trace.time; node; kind })
  in
  let qlines =
    List.map
      (fun (qnode, qc) ->
        line qc.c_time_ms qnode
          (Bft_obs.Trace.Quorum_commit
             { view = qc.c_view; height = qc.c_height }))
      (quorum_commits result ~quorum)
  in
  let flines =
    List.map
      (fun fe -> line fe.fe_time_ms fe.fe_node (Bft_obs.Trace.Fault fe.fe_kind))
      result.fault_events
  in
  List.rev tagged @ qlines @ flines
  |> List.stable_sort (fun (ta, na, _) (tb, nb, _) ->
         match Float.compare ta tb with
         | 0 -> Int.compare na nb
         | c -> c)
  |> List.map (fun (_, _, line) -> line)

let quorum_latencies result ~quorum =
  let created : (int64, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nr ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt created p.p_hash with
          | Some t when t <= p.p_time_ms -> ()
          | _ -> Hashtbl.replace created p.p_hash p.p_time_ms)
        nr.proposals)
    result.nodes;
  quorum_commits result ~quorum
  |> List.filter_map (fun (_, qc) ->
         Option.map
           (fun t -> (qc.c_height, qc.c_time_ms -. t))
           (Hashtbl.find_opt created qc.c_hash))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
