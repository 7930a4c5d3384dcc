open Bft_types
module Trace = Bft_obs.Trace

let log_src = Logs.Src.create "moonshot.host" ~doc:"Protocol node host"

module Log = (val Logs.src_log log_src : Logs.LOG)

type payload = Fixed of int | Clients of Bft_mempool.Ingest.t

type 'msg link = {
  send : int -> 'msg -> unit;
  multicast : 'msg -> unit;
  set_timer : float -> (unit -> unit) -> unit -> unit;
}

module Make (P : Protocol_intf.S) = struct
  type t = {
    validators : Validator_set.t;
    delta : float;
    leader_of : int -> int;
    make_payload : view:int -> parent:Block.t -> Payload.t;
    trace : Trace.t option;
    now : unit -> float;
    on_commit : int -> Block.t -> unit;
    on_propose : int -> Block.t -> unit;
    wals : P.wal array;  (** [[||]] when WAL-less *)
    nodes : P.node option array;
    spawns : int array;
  }

  let create ~n ~delta ~leader_of ~payload ?trace ~wal ~now ~on_commit
      ~on_propose () =
    let make_payload =
      match payload with
      | Fixed size_bytes ->
          fun ~view ~parent:_ -> Payload.make ~id:view ~size_bytes
      | Clients ing ->
          fun ~view ~parent ->
            Bft_mempool.Ingest.cut ing ~view ~parent ~now:(now ())
    in
    {
      validators = Validator_set.make n;
      delta;
      leader_of;
      make_payload;
      trace =
        Option.bind trace (fun s -> if Trace.enabled s then Some s else None);
      now;
      on_commit;
      on_propose;
      wals = (if wal then Array.init n (fun _ -> P.wal_create ()) else [||]);
      nodes = Array.make n None;
      spawns = Array.make n 0;
    }

  let emit sink ~time ~node kind = Trace.emit sink { Trace.time; node; kind }

  let env t ~(link : P.msg link) id : P.msg Env.t =
    {
      Env.id;
      validators = t.validators;
      delta = t.delta;
      now = t.now;
      send = link.send;
      multicast = link.multicast;
      set_timer = link.set_timer;
      leader_of = t.leader_of;
      make_payload = t.make_payload;
      on_commit =
        (match t.trace with
        | None -> t.on_commit id
        | Some sink ->
            fun b ->
              emit sink ~time:(t.now ()) ~node:id
                (Trace.Committed
                   { view = b.Block.view; height = b.Block.height });
              t.on_commit id b);
      on_propose = t.on_propose id;
      probe =
        Option.map
          (fun sink ev ->
            emit sink ~time:(t.now ()) ~node:id (Trace.Node_event ev))
          t.trace;
    }

  let wal t id = t.wals.(id)

  let spawn t ~link ?(equivocate = false) ?(wrap = Fun.id) id =
    let wal = if Array.length t.wals = 0 then None else Some t.wals.(id) in
    let node = P.create ~equivocate ?wal (wrap (env t ~link id)) in
    t.nodes.(id) <- Some node;
    t.spawns.(id) <- t.spawns.(id) + 1;
    node

  let restore_wal t id blob =
    t.wals.(id) <-
      (match P.wal_decode blob with
      | Ok w -> w
      | Error reason ->
          Log.err (fun m ->
              m "node %d: corrupt WAL snapshot (%s); restarting empty" id
                reason);
          P.wal_create ())

  let node t id = t.nodes.(id)
  let incarnation t id = t.spawns.(id) - 1
  let view t id =
    match t.nodes.(id) with Some nd -> P.current_view nd | None -> 0
  let stop t id = t.nodes.(id) <- None

  let delivered t ~src ~dst ~bytes msg =
    match t.trace with
    | None -> ()
    | Some sink ->
        emit sink ~time:(t.now ()) ~node:dst
          (Trace.Delivered
             { src; cls = P.classify msg; view = P.view_of msg; bytes })

  (* The engine hands the tap its own clock, which is [now ()]. *)
  let delivery_tap t =
    Option.map
      (fun _ ~time:_ ~src ~dst msg ->
        delivered t ~src ~dst ~bytes:(P.msg_size msg) msg)
      t.trace
end
