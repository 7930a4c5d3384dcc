(* Wire-format and live-network substrate tests.

   Codec layer: qcheck round-trips (decode of encode is the identity) over
   every constructor of both message families, strict-prefix truncation
   rejection, garbage-never-raises fuzzing, and byte-pinned vectors that
   docs/WIRE.md quotes verbatim.

   Transport layer: localhost TCP clusters for all five protocols (thread
   and process modes), survival under malformed-frame injection, trace
   merging, and the substrate cross-validation: the simulator and the
   socket cluster must commit identical chains fault-free, under a
   view-anchored chaos schedule and with client traffic.

   Analysis layer: quorum commits, liveness, client latency and the
   post-run check on hand-built results, and the coordinator's result
   channel, without sockets. *)

open Bft_types
module Wire = Bft_net.Wire
module Tcp = Bft_net.Tcp
module Codec = Moonshot.Codec
module Jcodec = Jolteon.Jolteon_codec
module Message = Moonshot.Message
module Jmsg = Jolteon.Jolteon_msg
module Cert = Moonshot.Cert
module Tc = Moonshot.Tc
module Vote_kind = Moonshot.Vote_kind
module Net_harness = Bft_runtime.Net_harness
module Protocol_kind = Bft_runtime.Protocol_kind

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

(* --- generators ----------------------------------------------------------- *)

let payload_gen =
  let* id = QCheck.Gen.int_range 0 10_000 in
  let* size_bytes = QCheck.Gen.int_range 0 200 in
  QCheck.Gen.return (Payload.make ~id ~size_bytes)

(* A structurally valid block: a short chain grown from genesis, so
   heights, views and parent hashes all satisfy the smart constructors. *)
let block_gen =
  let* depth = QCheck.Gen.int_range 1 4 in
  let* proposer = QCheck.Gen.int_range 0 9 in
  let* view_step = QCheck.Gen.int_range 1 3 in
  let* payload = payload_gen in
  let rec grow parent d =
    if d = 0 then parent
    else
      grow
        (Block.create ~parent
           ~view:(parent.Block.view + view_step)
           ~proposer ~payload)
        (d - 1)
  in
  QCheck.Gen.return (grow Block.genesis depth)

let vote_kind_gen =
  QCheck.Gen.oneofl [ Vote_kind.Opt; Vote_kind.Normal; Vote_kind.Fallback ]

let cert_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Cert.genesis;
      (let* kind = vote_kind_gen in
       let* block = block_gen in
       let* signers = QCheck.Gen.int_range 1 10 in
       QCheck.Gen.return
         (Cert.make ~kind ~view:block.Block.view ~block ~signers));
    ]

let tc_gen =
  let* view = QCheck.Gen.int_range 1 50 in
  let* high_cert = QCheck.Gen.option cert_gen in
  let* signers = QCheck.Gen.int_range 1 10 in
  QCheck.Gen.return (Tc.make ~view ~high_cert ~signers)

let msg_gen : Message.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (let* block = block_gen in
       QCheck.Gen.return (Message.Opt_propose { block }));
      (let* block = block_gen in
       let* cert = cert_gen in
       QCheck.Gen.return (Message.Propose { block; cert }));
      (let* block = block_gen in
       let* cert = cert_gen in
       let* tc = tc_gen in
       QCheck.Gen.return (Message.Fb_propose { block; cert; tc }));
      (let* kind = vote_kind_gen in
       let* block = block_gen in
       QCheck.Gen.return (Message.Vote { kind; block }));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* lock = QCheck.Gen.option cert_gen in
       QCheck.Gen.return (Message.Timeout { view; lock }));
      (let* c = cert_gen in
       QCheck.Gen.return (Message.Cert_gossip c));
      (let* tc = tc_gen in
       QCheck.Gen.return (Message.Tc_gossip tc));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* lock = cert_gen in
       QCheck.Gen.return (Message.Status { view; lock }));
      (let* view = QCheck.Gen.int_range 1 1000 in
       let* block = block_gen in
       QCheck.Gen.return (Message.Commit_vote { view; block }));
      (let* block = block_gen in
       QCheck.Gen.return (Message.Block_request { hash = block.Block.hash }));
      (let* blocks = QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) block_gen in
       QCheck.Gen.return (Message.Blocks_response { blocks }));
    ]

let jmsg_gen : Jmsg.t QCheck.Gen.t =
  QCheck.Gen.oneof
    [
      (let* block = block_gen in
       let* qc = cert_gen in
       let* tc = QCheck.Gen.option tc_gen in
       QCheck.Gen.return (Jmsg.Propose { block; qc; tc }));
      (let* block = block_gen in
       QCheck.Gen.return (Jmsg.Vote { block }));
      (let* round = QCheck.Gen.int_range 1 1000 in
       let* high_qc = cert_gen in
       QCheck.Gen.return (Jmsg.Timeout { round; high_qc }));
      (let* block = block_gen in
       QCheck.Gen.return (Jmsg.Block_request { hash = block.Block.hash }));
      (let* blocks = QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) block_gen in
       QCheck.Gen.return (Jmsg.Blocks_response { blocks }));
    ]

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Message.pp) msg_gen
let arb_jmsg = QCheck.make ~print:(Format.asprintf "%a" Jmsg.pp) jmsg_gen

(* --- round-trip properties ------------------------------------------------- *)

let prop_roundtrip_moonshot =
  QCheck.Test.make ~name:"moonshot codec round-trip" ~count:500 arb_msg
    (fun m -> Codec.decode (Codec.encode m) = Ok m)

let prop_roundtrip_jolteon =
  QCheck.Test.make ~name:"jolteon codec round-trip" ~count:500 arb_jmsg
    (fun m -> Jcodec.decode (Jcodec.encode m) = Ok m)

(* Every strict prefix of a valid body must be rejected: the decoder's
   reads are deterministic, so a cut can only surface as an error, never
   as a different successful parse. *)
let prop_truncation_moonshot =
  QCheck.Test.make ~name:"moonshot truncated frames rejected" ~count:200
    arb_msg (fun m ->
      let body = Codec.encode m in
      List.for_all
        (fun k -> Result.is_error (Codec.decode (String.sub body 0 k)))
        (List.init (String.length body) (fun k -> k)))

let prop_truncation_jolteon =
  QCheck.Test.make ~name:"jolteon truncated frames rejected" ~count:200
    arb_jmsg (fun m ->
      let body = Jcodec.encode m in
      List.for_all
        (fun k -> Result.is_error (Jcodec.decode (String.sub body 0 k)))
        (List.init (String.length body) (fun k -> k)))

(* Garbage in, Error out — never an exception. *)
let garbage_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.string_size (QCheck.Gen.int_range 0 64);
      (* Valid version byte, then noise: exercises the per-tag readers. *)
      (let* tag = QCheck.Gen.int_range 0 0x30 in
       let* rest = QCheck.Gen.string_size (QCheck.Gen.int_range 0 64) in
       QCheck.Gen.return (Printf.sprintf "\x01%c%s" (Char.chr tag) rest));
    ]

let prop_garbage_never_raises =
  QCheck.Test.make ~name:"garbage frames never raise" ~count:2000
    (QCheck.make garbage_gen) (fun s ->
      (match Codec.decode s with Ok _ -> true | Error _ -> true)
      && match Jcodec.decode s with Ok _ -> true | Error _ -> true)

(* --- varint primitives ----------------------------------------------------- *)

let prop_uvar_roundtrip =
  QCheck.Test.make ~name:"uvar round-trip" ~count:1000
    (* [land max_int] rather than [abs]: abs min_int is still negative. *)
    QCheck.(map (fun i -> i land max_int) int)
    (fun v ->
      let w = Wire.W.create () in
      Wire.W.uvar w v;
      let r = Wire.R.of_string (Wire.W.contents w) in
      let v' = Wire.R.uvar r in
      Wire.R.expect_end r;
      v' = v)

let prop_svar_roundtrip =
  (* [asr 2] keeps magnitudes under the writer's 2^61 zigzag bound while
     still covering the full sign range. *)
  QCheck.Test.make ~name:"svar round-trip" ~count:1000
    QCheck.(map (fun i -> i asr 2) int)
    (fun v ->
      let w = Wire.W.create () in
      Wire.W.svar w v;
      let r = Wire.R.of_string (Wire.W.contents w) in
      let v' = Wire.R.svar r in
      Wire.R.expect_end r;
      v' = v)

(* --- pinned vectors (quoted in docs/WIRE.md) ------------------------------- *)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init
    (String.length s) (fun i -> Char.code s.[i])))

let pinned_vote_vector () =
  let body = Codec.encode (Message.Vote { kind = Vote_kind.Normal; block = Block.genesis }) in
  Alcotest.(check string)
    "Vote{Normal, genesis} body" "01040100000000000000000000010000"
    (hex body);
  Alcotest.(check string)
    "framed" ("00000010" ^ hex body)
    (hex (Wire.frame body))

let pinned_timeout_vector () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  Alcotest.(check string) "Timeout{3, None} body" "01050300" (hex body)

let pinned_jolteon_vote_vector () =
  let body = Jcodec.encode (Jmsg.Vote { block = Block.genesis }) in
  Alcotest.(check string)
    "Jolteon Vote{genesis} body" "012200000000000000000000010000"
    (hex body)

let bad_version_rejected () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  let bad = "\x02" ^ String.sub body 1 (String.length body - 1) in
  match Codec.decode bad with
  | Error (Wire.Bad_version 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad version accepted"

let unknown_tag_rejected () =
  match Codec.decode "\x01\x7f" with
  | Error (Wire.Bad_tag 0x7f) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let trailing_rejected () =
  let body = Codec.encode (Message.Timeout { view = 3; lock = None }) in
  match Codec.decode (body ^ "\x00") with
  | Error (Wire.Trailing 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let negative_height_rejected () =
  (* A hand-built Vote body whose height varint zigzag-decodes fine but
     whose block constructor must refuse it: proposer -2 (svar 03). *)
  let w = Wire.W.create () in
  Wire.W.u8 w 0x01;
  Wire.W.u8 w 0x04;
  Wire.W.u8 w 1;
  Wire.W.u64 w 0L;
  Wire.W.uvar w 0;
  Wire.W.uvar w 0;
  Wire.W.svar w (-2);
  Wire.W.uvar w 0;
  Wire.W.uvar w 0;
  match Codec.decode (Wire.W.contents w) with
  | Error (Wire.Invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad proposer accepted"

(* --- live clusters --------------------------------------------------------- *)

let cluster_case kind =
  Alcotest.test_case (Protocol_kind.name kind) `Quick (fun () ->
      let cfg = Net_harness.config kind ~n:4 ~blocks:3 in
      let r = Net_harness.run kind cfg in
      match Net_harness.check r ~target:3 with
      | Ok () -> ()
      | Error reason -> Alcotest.fail reason)

(* The acceptance bar: 50 blocks over real sockets. *)
let fifty_blocks () =
  let kind = Protocol_kind.Commit_moonshot in
  let cfg = Net_harness.config kind ~n:4 ~blocks:50 in
  let r = Net_harness.run kind cfg in
  match Net_harness.check r ~target:50 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

let process_mode () =
  let kind = Protocol_kind.Commit_moonshot in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:3) with
      Tcp.mode = Tcp.Processes;
    }
  in
  let r = Net_harness.run kind cfg in
  match Net_harness.check r ~target:3 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

let traced_cluster () =
  let kind = Protocol_kind.Pipelined_moonshot in
  let cfg =
    { (Net_harness.config kind ~n:4 ~blocks:3) with Tcp.trace = true }
  in
  let r = Net_harness.run kind cfg in
  let quorum = Net_harness.quorum ~n:4 in
  let lines = Tcp.merged_trace r ~quorum in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "JSONL shape: %s" l)
        true
        (String.length l > 6 && String.sub l 0 5 = "{\"t\":"))
    lines;
  let times =
    List.map
      (fun l -> Scanf.sscanf l "{\"t\":%f" (fun t -> t))
      lines
  in
  Alcotest.(check bool) "times nondecreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times));
  Alcotest.(check bool) "has quorum_commit" true
    (List.exists
       (fun l ->
         let re = {|"ev":"quorum_commit"|} in
         let rec find i =
           i + String.length re <= String.length l
           && (String.sub l i (String.length re) = re || find (i + 1))
         in
         find 0)
       lines);
  Alcotest.(check bool) "has latency samples" true
    (Tcp.quorum_latencies r ~quorum <> [])

(* A rogue client connects to a validator and feeds it garbage while the
   cluster runs; the cluster must still commit, and the frames sent after
   a valid hello must be counted as decode errors. *)
let malformed_injection () =
  let kind = Protocol_kind.Commit_moonshot in
  let base_port = 28411 in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:5) with
      Tcp.base_port = Some base_port;
    }
  in
  let inject () =
    let rec connect tries =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
        fd
      with Unix.Unix_error _ when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.005;
        connect (tries - 1)
    in
    (* Client 1: a valid hello from "node 2", then well-framed garbage
       bodies — each must be skipped and counted, not crash the node. *)
    let fd = connect 200 in
    let w = Wire.W.create () in
    Wire.W.u8 w 0x01;
    Wire.W.u8 w 0x00;
    Wire.W.uvar w 2;
    Wire.W.uvar w 4;
    Wire.W.bytes w (Protocol_kind.name kind);
    (try
       Wire.write_all fd (Wire.frame (Wire.W.contents w));
       Wire.write_all fd (Wire.frame "\x01\x7f\xde\xad\xbe\xef");
       Wire.write_all fd (Wire.frame "\x42\x42\x42")
     with Unix.Unix_error _ -> ());
    (* Client 2: raw garbage instead of a hello — dropped at the door. *)
    let fd2 = connect 200 in
    (try Wire.write_all fd2 "\xff\xff\xff\xff garbage" with Unix.Unix_error _ -> ());
    Thread.delay 0.2;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.close fd2 with Unix.Unix_error _ -> ()
  in
  let injector = Thread.create inject () in
  let r = Net_harness.run kind cfg in
  Thread.join injector;
  (match Net_harness.check r ~target:5 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  let errors =
    Array.fold_left (fun acc nr -> acc + nr.Tcp.decode_errors) 0 r.Tcp.nodes
  in
  Alcotest.(check bool) "garbage frames counted" true (errors >= 1)

(* --- hello handshake rejection --------------------------------------------- *)

let hello_frame ?(version = 0x01) ~sender ~n ~protocol () =
  let w = Wire.W.create () in
  Wire.W.u8 w version;
  Wire.W.u8 w 0x00;
  Wire.W.uvar w sender;
  Wire.W.uvar w n;
  Wire.W.bytes w protocol;
  Wire.frame (Wire.W.contents w)

(* A validator that rejects a hello closes the connection without writing
   anything: from the rogue client's side that is a clean EOF (or a reset
   if our write raced the close). *)
let expect_closed what fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let buf = Bytes.create 1 in
  (match Unix.read fd buf 0 1 with
  | 0 -> ()
  | _ -> Alcotest.failf "%s: validator sent data on a rejected conn" what
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "%s: connection not closed" what);
  try Unix.close fd with Unix.Unix_error _ -> ()

let hello_rejects () =
  let kind = Protocol_kind.Commit_moonshot in
  let proto = Protocol_kind.name kind in
  let base_port = 28461 in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:10) with
      Tcp.base_port = Some base_port;
    }
  in
  let inject () =
    let rec connect tries =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
        fd
      with Unix.Unix_error _ when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.005;
        connect (tries - 1)
    in
    let try_hello what frame =
      let fd = connect 400 in
      (try Wire.write_all fd frame with Unix.Unix_error _ -> ());
      expect_closed what fd
    in
    try_hello "wrong protocol"
      (hello_frame ~sender:2 ~n:4 ~protocol:"bogus-protocol" ());
    try_hello "wrong cluster size" (hello_frame ~sender:2 ~n:5 ~protocol:proto ());
    try_hello "sender out of range"
      (hello_frame ~sender:9 ~n:4 ~protocol:proto ());
    (* Node 0's own id claimed by a peer: self-loops never dial out, so
       an inbound hello naming the listener itself is an impostor. *)
    try_hello "sender is self" (hello_frame ~sender:0 ~n:4 ~protocol:proto ());
    try_hello "stale version"
      (hello_frame ~version:0x02 ~sender:2 ~n:4 ~protocol:proto ())
  in
  let injector = Thread.create inject () in
  let r = Net_harness.run kind cfg in
  Thread.join injector;
  match Net_harness.check r ~target:10 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* --- chaos: fault injection on live sockets -------------------------------- *)

(* One wall-clock crash/recover cycle while the cluster runs.  The dead
   incarnation's sockets must go down (peers see drops, then reconnect),
   the coordinator must restart the node from its WAL file, and the
   cluster must still reach the target with per-height agreement. *)
let wall_chaos_result mode =
  let kind = Protocol_kind.Commit_moonshot in
  let faults =
    match Bft_faults.Fault_schedule.of_string "crash@150:2;recover@700:2" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (Net_harness.config kind ~n:4 ~blocks:40) with
      Tcp.mode;
      delta_ms = 300.;
      link_delay_ms = 8.;
      faults;
    }
  in
  Net_harness.run kind cfg

let assert_recovered (r : Tcp.result) ~node =
  (match Net_harness.check r ~target:40 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  Alcotest.(check bool) "completed cooperatively" true (r.Tcp.outcome = Tcp.Completed);
  Alcotest.(check bool)
    "victim restarted" true
    (r.Tcp.nodes.(node).Tcp.restarts >= 1);
  let kinds = List.map (fun fe -> fe.Tcp.fe_kind) r.Tcp.fault_events in
  Alcotest.(check bool) "crash recorded" true
    (List.mem Bft_obs.Trace.Crash kinds);
  Alcotest.(check bool) "recover recorded" true
    (List.mem Bft_obs.Trace.Recover kinds);
  let report = Net_harness.net_liveness r ~delta:300. in
  (match report.Bft_obs.Liveness.recoveries with
  | [ rec_ ] ->
      Alcotest.(check int) "recovered node" node rec_.Bft_obs.Liveness.node;
      Alcotest.(check bool) "caught up" true
        (rec_.Bft_obs.Liveness.caught_up_at_ms <> None)
  | rs -> Alcotest.failf "expected 1 recovery in report, got %d" (List.length rs));
  Alcotest.(check bool) "bounded post-disruption commit gap" true
    (report.Bft_obs.Liveness.max_quorum_gap_ms
    <= report.Bft_obs.Liveness.bound_ms)

(* One run per mode, shared by the crash/recover case and the cases that
   pin the mode's crash semantics. *)
let threads_chaos = lazy (wall_chaos_result Tcp.Threads)
let process_chaos = lazy (wall_chaos_result Tcp.Processes)

let threads_crash_recover () =
  assert_recovered (Lazy.force threads_chaos) ~node:2

(* Process mode: the victim really dies ([SIGKILL]) and is re-forked; its
   new incarnation rebuilds from the WAL file and catches up via sync. *)
let process_crash_recover () =
  assert_recovered (Lazy.force process_chaos) ~node:2

(* What the victim (node 2) keeps of its crashed incarnation: a thread
   reports its result on the way down, so its pre-crash commits survive; a
   child dies by SIGKILL and they die with it.  Either way the victim ran
   exactly two incarnations and the cluster stopped cooperatively. *)
let assert_crash_semantics (r : Tcp.result) ~keeps_pre_crash =
  let crash_ms =
    match
      List.find_opt
        (fun fe -> fe.Tcp.fe_node = 2 && fe.Tcp.fe_kind = Bft_obs.Trace.Crash)
        r.Tcp.fault_events
    with
    | Some fe -> fe.Tcp.fe_time_ms
    | None -> Alcotest.fail "no crash event for node 2"
  in
  let victim = r.Tcp.nodes.(2) in
  Alcotest.(check bool)
    "commits timed before the crash" keeps_pre_crash
    (List.exists (fun c -> c.Tcp.c_time_ms < crash_ms) victim.Tcp.commits);
  Alcotest.(check int) "restarts" 1 victim.Tcp.restarts;
  Alcotest.(check bool) "completed" true (r.Tcp.outcome = Tcp.Completed)

let threads_victim_keeps_commits () =
  assert_crash_semantics (Lazy.force threads_chaos) ~keeps_pre_crash:true

let process_victim_loses_commits () =
  assert_crash_semantics (Lazy.force process_chaos) ~keeps_pre_crash:false

(* A crash schedule with no [wal_dir] runs on a temp directory of the run's
   own, which is gone once the run returns. *)
let default_wal_dir_removed () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "moonshot-wal-%d" (Unix.getpid ()))
  in
  List.iter
    (fun run ->
      ignore (Lazy.force run : Tcp.result);
      Alcotest.(check bool) (dir ^ " removed") false (Sys.file_exists dir))
    [ threads_chaos; process_chaos ]

(* --- result channel (no sockets) ------------------------------------------- *)

(* A result beyond one frame's limits (65,536 list items) crosses a pipe
   intact.  The writer runs in its own thread: the result is far larger
   than the pipe's buffer. *)
let result_channel_roundtrip () =
  let k = 70_000 in
  let r =
    {
      Tcp.id = 3;
      commits =
        List.init k (fun h ->
            {
              Tcp.c_height = h;
              c_view = h + 1;
              c_hash = Int64.of_int (h * 7919);
              c_time_ms = float_of_int h /. 3.;
              c_payload_id = -h;
              c_payload_bytes = h mod 4096;
            });
      proposals =
        List.init 100 (fun h ->
            { Tcp.p_height = h; p_hash = Int64.of_int h; p_time_ms = 0.5 });
      trace_lines =
        List.init k (fun i -> Printf.sprintf "{\"t\":%d,\"node\":3}" i);
      decode_errors = 1;
      messages_sent = 2;
      bytes_sent = 3;
      bytes_heal = 4;
      reconnects = 5;
      restarts = 6;
      malformed_by_peer = [| 0; 1; 2; 3 |];
      dropped_by_peer = [| 4; 5; 6; 7 |];
    }
  in
  let rd, wr = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        Tcp.write_result wr r;
        Unix.close wr)
      ()
  in
  let got = Tcp.read_result rd in
  Thread.join writer;
  Unix.close rd;
  match got with
  | Ok r' -> Alcotest.(check bool) "identical result" true (r = r')
  | Error e -> Alcotest.failf "result lost: %s" e

(* --- substrate cross-validation -------------------------------------------- *)

let show_chain chain =
  String.concat ","
    (List.map
       (fun (c : Net_harness.commit_id) ->
         Printf.sprintf "%d@%d" c.Net_harness.height c.view)
       chain)

let net_chains (cv : Net_harness.crossval) =
  String.concat " / "
    (List.map (fun (r : Net_harness.net_run) -> show_chain r.chain) cv.runs)

let crossval_case kind =
  Alcotest.test_case (Protocol_kind.name kind) `Quick (fun () ->
      let cv = Net_harness.cross_validate ~n:4 ~protocol:kind ~blocks:5 () in
      if not cv.Net_harness.agree then
        Alcotest.failf "substrates disagree: sim %s, net %s"
          (show_chain cv.Net_harness.sim_chain)
          (net_chains cv))

let crossval_with_payload () =
  let cv =
    Net_harness.cross_validate ~n:4 ~payload_bytes:2048
      ~protocol:Protocol_kind.Commit_moonshot ~blocks:5 ()
  in
  Alcotest.(check bool) "payload run agrees" true cv.Net_harness.agree

(* The client-traffic equivalence bar: the same seeded client stream,
   ingested under the Views clock, must put every command in the same
   block on both substrates — chains agree (height, view, hash), and
   since batch contents are a pure function of the payload reference,
   the replicated mempools agree command-for-command. *)
let crossval_clients_case kind =
  Alcotest.test_case (Protocol_kind.name kind) `Quick (fun () ->
      let cv =
        Net_harness.cross_validate ~n:4
          ~clients:Net_harness.crossval_clients ~protocol:kind ~blocks:5 ()
      in
      if not cv.Net_harness.agree then
        Alcotest.failf "client chains disagree: sim %s, net %s"
          (show_chain cv.Net_harness.sim_chain)
          (net_chains cv);
      (* Both replayers saw real traffic and lost nothing. *)
      List.iter
        (function
          | None -> Alcotest.fail "missing client summary"
          | Some (s : Bft_mempool.Ingest.summary) ->
              Alcotest.(check bool) "commands flowed" true (s.committed > 0);
              Alcotest.(check int) "conservation" s.submitted
                (s.rejected + s.committed + s.pending + s.backlogged))
        (cv.Net_harness.sim_clients
        :: List.map (fun (r : Net_harness.net_run) -> r.clients) cv.runs))

(* The chaos equivalence bar: a seeded random logical schedule (one
   crash/recover plus one partition window) must yield the identical
   committed (height, view, hash) chain on the simulator and on real
   sockets in both execution modes. *)
let crossval_chaos_case kind =
  Alcotest.test_case (Protocol_kind.name kind) `Quick (fun () ->
      let cv =
        Net_harness.cross_validate ~chaos_seed:7 ~protocol:kind ~blocks:1 ()
      in
      if not cv.Net_harness.agree then
        Alcotest.failf "chaos chains disagree under [%s] (%d blocks)"
          (Bft_faults.Fault_schedule.to_string cv.Net_harness.schedule)
          cv.Net_harness.blocks;
      Alcotest.(check (list bool)) "threads and processes" [ true; false ]
        (List.map
           (fun (r : Net_harness.net_run) -> r.mode = Tcp.Threads)
           cv.runs);
      List.iter
        (fun (r : Net_harness.net_run) ->
          match r.liveness with
          | None -> Alcotest.fail "missing liveness report"
          | Some rep -> (
              match rep.Bft_obs.Liveness.recoveries with
              | [ rec_ ] ->
                  Alcotest.(check bool) "caught up after recovery" true
                    (rec_.Bft_obs.Liveness.caught_up_at_ms <> None)
              | rs ->
                  Alcotest.failf "expected 1 recovery, got %d"
                    (List.length rs)))
        cv.runs)

(* No world combines a fault schedule with client traffic, and a
   Wall-clock client stream is substrate-dependent: both are refused
   before anything runs. *)
let crossval_rejects () =
  let rejects what f =
    match f () with
    | (_ : Net_harness.crossval) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let protocol = Protocol_kind.Commit_moonshot in
  rejects "schedule + clients" (fun () ->
      Net_harness.cross_validate ~chaos_seed:7
        ~clients:Net_harness.crossval_clients ~protocol ~blocks:3 ());
  rejects "wall-clock clients" (fun () ->
      Net_harness.cross_validate
        ~clients:
          { Net_harness.crossval_clients with clock = Bft_mempool.Spec.Wall }
        ~protocol ~blocks:3 ())

(* --- post-run analysis on hand-built results (no sockets) ------------------ *)

let mk_commit ?(payload = Payload.empty ~id:0) ~height time =
  {
    Tcp.c_height = height;
    c_view = height;
    c_hash = Int64.of_int (0x100 + height);
    c_time_ms = time;
    c_payload_id = payload.Payload.id;
    c_payload_bytes = payload.Payload.size_bytes;
  }

let mk_node ?(restarts = 0) ?(proposals = []) id commits =
  {
    Tcp.id;
    commits;
    proposals;
    trace_lines = [];
    decode_errors = 0;
    messages_sent = 0;
    bytes_sent = 0;
    bytes_heal = 0;
    reconnects = 0;
    restarts;
    malformed_by_peer = [||];
    dropped_by_peer = [||];
  }

let mk_result nodes =
  {
    Tcp.nodes = Array.of_list nodes;
    wall_ms = 1_000.;
    reached_target = true;
    outcome = Tcp.Completed;
    fault_events = [];
  }

let quorum_times r ~quorum =
  Tcp.quorum_commits r ~quorum
  |> List.map (fun (_, c) -> (c.Tcp.c_height, c.Tcp.c_time_ms))
  |> List.sort compare

(* Node 2 committed height 1 at 5 ms, crashed, and re-committed it at
   50 ms while catching up: it counts once, at 5 ms.  Height 2 reached
   only two nodes, below the quorum of 3. *)
let analysis_recommit_and_subquorum () =
  let c = mk_commit in
  let r =
    mk_result
      [
        mk_node 0 [ c ~height:1 10.; c ~height:2 60. ];
        mk_node 1 [ c ~height:1 30.; c ~height:2 70. ];
        mk_node ~restarts:1 2 [ c ~height:1 5.; c ~height:1 50. ];
        mk_node 3 [];
      ]
  in
  Alcotest.(check (list (pair int (float 0.)))) "one quorum commit, at 30 ms"
    [ (1, 30.) ]
    (quorum_times r ~quorum:(Net_harness.quorum ~n:4));
  (* Without node 1, height 1 has two distinct committers only. *)
  let r' = { r with Tcp.nodes = [| r.Tcp.nodes.(0); r.Tcp.nodes.(2) |] } in
  Alcotest.(check (list (pair int (float 0.)))) "re-commit is not a vote" []
    (quorum_times r' ~quorum:3)

(* n = 5 has f = 1, so a block is final at its 2f+1 = 3rd commit — not
   the (n-f) = 4th.  Latency samples, the liveness gap and client
   latency must all read the 3rd commit. *)
let analysis_n5_third_commit () =
  Alcotest.(check int) "commit quorum at n=5" 3 (Net_harness.quorum ~n:5);
  let spec = Net_harness.crossval_clients in
  let batch = Payload.batch ~cursor:0 ~watermark:64 ~count:32 in
  let times1 = [ 10.; 20.; 30.; 40.; 50. ]
  and times2 = [ 100.; 110.; 120.; 200.; 300. ] in
  let r =
    mk_result
      (List.init 5 (fun id ->
           mk_node id
             ~proposals:
               [ { Tcp.p_height = 1; p_hash = 0x101L; p_time_ms = 0. } ]
             [
               mk_commit ~payload:batch ~height:1 (List.nth times1 id);
               mk_commit ~height:2 (List.nth times2 id);
             ]))
  in
  let quorum = Net_harness.quorum ~n:5 in
  Alcotest.(check (list (pair int (float 0.)))) "quorum_latencies"
    [ (1, 30.) ]
    (Tcp.quorum_latencies r ~quorum);
  let rep = Net_harness.net_liveness r ~delta:1_000. in
  Alcotest.(check (float 0.)) "net_liveness gap = 120 - 30" 90.
    rep.Bft_obs.Liveness.max_quorum_gap_ms;
  let replay time =
    let ing = Bft_mempool.Ingest.create ~spec ~n:5 ~view_ms:100. () in
    ignore (Bft_mempool.Ingest.on_quorum_commit ing ~payload:batch ~time);
    Bft_mempool.Ingest.summary ing
  in
  let s = Net_harness.client_stats r ~spec ~view_ms:100. in
  Alcotest.(check bool) "client_stats: commands flowed" true
    (s.Bft_mempool.Ingest.committed > 0);
  Alcotest.(check bool) "client_stats at the 3rd commit" true
    (s.Bft_mempool.Ingest.lat = (replay 30.).Bft_mempool.Ingest.lat);
  Alcotest.(check bool) "not at the 4th" false
    (s.Bft_mempool.Ingest.lat = (replay 40.).Bft_mempool.Ingest.lat)

(* [check] demands dense heights only from nodes that never restarted. *)
let analysis_check_gaps () =
  let chain hs = List.map (fun h -> mk_commit ~height:h (float_of_int h)) hs in
  let run ~restarts =
    mk_result
      [
        mk_node 0 (chain [ 1; 2; 3 ]);
        mk_node 1 (chain [ 1; 2; 3 ]);
        mk_node ~restarts 2 (chain [ 1; 3 ]);
        mk_node 3 (chain [ 1; 2; 3 ]);
      ]
  in
  Alcotest.(check bool) "gap in a never-restarted node" true
    (Result.is_error (Net_harness.check (run ~restarts:0) ~target:3));
  Alcotest.(check bool) "gap in a restarted node" true
    (Result.is_ok (Net_harness.check (run ~restarts:1) ~target:3));
  let forked =
    mk_result
      [
        mk_node 0 (chain [ 1; 2; 3 ]);
        mk_node ~restarts:1 1
          [ mk_commit ~height:1 1.; { (mk_commit ~height:2 2.) with c_hash = 7L } ];
      ]
  in
  Alcotest.(check bool) "conflicting hashes" true
    (Result.is_error (Net_harness.check forked ~target:2))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "codec",
        q
          [
            prop_roundtrip_moonshot;
            prop_roundtrip_jolteon;
            prop_truncation_moonshot;
            prop_truncation_jolteon;
            prop_garbage_never_raises;
            prop_uvar_roundtrip;
            prop_svar_roundtrip;
          ] );
      ( "vectors",
        [
          Alcotest.test_case "vote (pinned)" `Quick pinned_vote_vector;
          Alcotest.test_case "timeout (pinned)" `Quick pinned_timeout_vector;
          Alcotest.test_case "jolteon vote (pinned)" `Quick
            pinned_jolteon_vote_vector;
          Alcotest.test_case "bad version" `Quick bad_version_rejected;
          Alcotest.test_case "unknown tag" `Quick unknown_tag_rejected;
          Alcotest.test_case "trailing bytes" `Quick trailing_rejected;
          Alcotest.test_case "bad proposer" `Quick negative_height_rejected;
        ] );
      ( "cluster",
        List.map cluster_case Protocol_kind.all
        @ [
            Alcotest.test_case "50 blocks" `Quick fifty_blocks;
            Alcotest.test_case "process mode" `Quick process_mode;
            Alcotest.test_case "traced run" `Quick traced_cluster;
            Alcotest.test_case "malformed injection" `Quick malformed_injection;
            Alcotest.test_case "hello rejects" `Quick hello_rejects;
          ] );
      ( "chaos",
        [
          Alcotest.test_case "threads crash/recover" `Quick
            threads_crash_recover;
          Alcotest.test_case "process crash/recover" `Quick
            process_crash_recover;
          Alcotest.test_case "threads victim keeps pre-crash commits" `Quick
            threads_victim_keeps_commits;
          Alcotest.test_case "process victim loses pre-crash commits" `Quick
            process_victim_loses_commits;
          Alcotest.test_case "default WAL dir removed" `Quick
            default_wal_dir_removed;
        ] );
      ( "channel",
        [
          Alcotest.test_case "70k commits and trace lines" `Quick
            result_channel_roundtrip;
        ] );
      ( "crossval",
        List.map crossval_case Protocol_kind.all
        @ [ Alcotest.test_case "with payload" `Quick crossval_with_payload ] );
      ( "crossval-clients", List.map crossval_clients_case Protocol_kind.all );
      ( "crossval-chaos", List.map crossval_chaos_case Protocol_kind.all );
      ( "analysis",
        [
          Alcotest.test_case "re-commit and sub-quorum" `Quick
            analysis_recommit_and_subquorum;
          Alcotest.test_case "n=5 picks the 3rd commit" `Quick
            analysis_n5_third_commit;
          Alcotest.test_case "check gaps" `Quick analysis_check_gaps;
          Alcotest.test_case "crossval rejects" `Quick crossval_rejects;
        ] );
    ]
