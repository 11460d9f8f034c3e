open Vp_core
module Json = Vp_observe.Json
module C = Json.Codec
module Protocol = Vp_server.Protocol
module Conn_server = Vp_server.Conn_server

type conn = { fd : Unix.file_descr; reader : Conn_server.reader }

type t = {
  host : string;
  port : int;
  retry_seed : int64;
  mutable retry_draws : int;  (* next jitter index — one per backoff sleep *)
  mutable conn : conn option;
}

let create ?(host = "127.0.0.1") ?(port = Protocol.default_port)
    ?(retry_seed = 0L) () =
  { host; port; retry_seed; retry_draws = 0; conn = None }

(* Jittered backoff: the server's [retry_after_ms] hint scaled into
   [0.5x, 1.0x) by a deterministic draw, so a herd of shed clients
   spreads out instead of reconnecting in lockstep — without giving up
   reproducibility (the sleep sequence is a pure function of the seed). *)
let retry_delay_ms ~seed ~index ~retry_after_ms =
  let u = Vp_robust.Mix.u01 ~seed ~site:"client.retry" ~index in
  float_of_int retry_after_ms *. (0.5 +. (0.5 *. u))

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let close t =
  match t.conn with
  | None -> ()
  | Some c ->
      t.conn <- None;
      close_conn c

let connect t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
      match
        let addr =
          Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.port)
        in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd addr
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
      with
      | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s:%d: %s" t.host t.port
               (Unix.error_message err))
      | exception Failure msg ->
          Error (Printf.sprintf "cannot connect to %s:%d: %s" t.host t.port msg)
      | fd ->
          let c = { fd; reader = Conn_server.reader fd } in
          t.conn <- Some c;
          Ok c)

let send_line c line =
  match Conn_server.write_frame c.fd line with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message err))

let read_line c =
  match Conn_server.read_frame c.reader ~max_bytes:Protocol.max_reply_bytes with
  | Frame line -> Ok line
  | Too_long -> Error Protocol.reply_too_long
  | Eof -> Error "connection closed by server"
  | Failed err ->
      Error (Printf.sprintf "receive failed: %s" (Unix.error_message err))

let ( let* ) = Result.bind

let decode desc reply =
  match C.decode desc reply with
  | v -> Ok v
  | exception C.Error e -> Error (C.error_message e)

let request t frame =
  let* c = connect t in
  let fail msg =
    (* A failed exchange leaves the stream in an unknown state; start
       fresh next time. *)
    close t;
    Error msg
  in
  match send_line c (Json.to_string frame) with
  | Error msg -> fail msg
  | Ok () -> (
      match read_line c with
      | Error msg -> fail msg
      | Ok line -> (
          match Json.of_string line with
          | Error msg -> fail (Printf.sprintf "malformed reply: %s" msg)
          | Ok reply ->
              (match decode Protocol.status reply with
              | Ok (Overloaded _) -> close t
              | Ok _ | Error _ -> ());
              Ok reply))

let request_retry ?(attempts = 20) t frame =
  let rec go n =
    let* reply = request t frame in
    match decode Protocol.status reply with
    | Ok (Overloaded _) when n <= 1 ->
        Error
          (Printf.sprintf "server still overloaded after %d attempts" attempts)
    | Ok (Overloaded ms) ->
        let index = t.retry_draws in
        t.retry_draws <- index + 1;
        Unix.sleepf
          (retry_delay_ms ~seed:t.retry_seed ~index ~retry_after_ms:ms /. 1000.0);
        go (n - 1)
    | Ok _ | Error _ -> Ok reply
  in
  go attempts

(* --- typed helpers --- *)

(* An ok reply decoded with [desc]; any other status is an [Error]. *)
let decode_ok desc reply =
  let* status = decode Protocol.status reply in
  match status with
  | Ok_reply -> decode desc reply
  | Error_reply msg -> Error msg
  | Overloaded _ -> Error "unexpected reply status \"overloaded\""

let call ?attempts t desc frame =
  Result.bind (request_retry ?attempts t frame) (decode_ok desc)

let ping t = call t Protocol.pong Protocol.ping

let server_stats t = call t Protocol.stats_reply Protocol.stats

let partition ?algorithm ?buffer_mb ?deadline_ms ?budget_steps t w =
  call t Protocol.partitioned
    (Protocol.partition_request ?algorithm ?buffer_mb ?deadline_ms
       ?budget_steps w)

let open_session ?panel ?drift_ratio ?min_window ?epoch ?memory ?horizon
    ?budget_steps ?buffer_mb t ~session table =
  call t Protocol.opened
    (Protocol.open_request ?panel ?drift_ratio ?min_window ?epoch ?memory
       ?horizon ?budget_steps ?buffer_mb ~session table)

let ingest ?deadline_ms ?budget_steps ?seq t ~session table q =
  let frame =
    Protocol.ingest_request ?deadline_ms ?budget_steps ?seq ~session table q
  in
  (* With a [seq] the request is idempotent across retries — a replayed
     apply comes back as a duplicate ack — so a lost reply (connection
     cut, server restarted mid-exchange) is safe to resend. Without one,
     resending could double-ingest; fail to the caller instead. *)
  let transport_attempts = match seq with Some _ -> 3 | None -> 1 in
  let rec go n =
    match request_retry t frame with
    | Error _ when n > 1 -> go (n - 1)
    | result ->
        let* reply = result in
        let* (i : Protocol.ingested) = decode_ok Protocol.ingested reply in
        Ok i.generation
  in
  go transport_attempts

let layout t ~session = call t Protocol.layout_view (Protocol.layout_request ~session)

let history t ~session =
  call t Protocol.history_view (Protocol.history_request ~session)
  |> Result.map (fun (h : Protocol.history_view) -> h.history)

let close_session t ~session = call t Protocol.closed (Protocol.close_request ~session)

let shutdown_server t = call t Protocol.stopping Protocol.shutdown

(* --- batch mode --- *)

let replay_script ?(progress = fun _ -> ()) t file =
  match Vp_parser.Workload_parser.parse_file file with
  | Error e ->
      Error
        (Format.asprintf "%s: %a" file Vp_parser.Workload_parser.pp_error e)
  | Ok workloads ->
      let replay_table w =
        let table = Workload.table w in
        let session = Table.name table in
        let* _opened = open_session t ~session table in
        let queries = Array.to_list (Workload.queries w) in
        let* _count =
          (* Sequenced ingests: position [i+1] is the idempotent request
             id, so a dropped connection (or a server restart) mid-script
             resumes without double-counting a query. *)
          List.fold_left
            (fun acc q ->
              let* i = acc in
              let* _generation = ingest ~seq:(i + 1) t ~session table q in
              Ok (i + 1))
            (Ok 0) queries
        in
        let* hist = close_session t ~session in
        progress
          (Printf.sprintf "%s: %d queries, %d decisions" session
             (List.length queries)
             (List.length (String.split_on_char '\n' hist) - 1));
        Ok (session, hist)
      in
      List.fold_left
        (fun acc w ->
          let* done_ = acc in
          let* entry = replay_table w in
          Ok (entry :: done_))
        (Ok []) workloads
      |> Result.map List.rev
