module Json = Vp_observe.Json

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- framing --- *)

let chunk = 8192

(* Bytes [pos, len) of [buf] are unconsumed; [pos, scanned) of them hold
   no newline. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scanned : int;
  mutable skipping : bool;  (* dropping the tail of a [Too_long] frame *)
}

type frame = Frame of string | Too_long | Eof | Failed of Unix.error

let reader fd =
  let buf = Bytes.create chunk in
  { fd; buf; pos = 0; len = 0; scanned = 0; skipping = false }

let rec newline_in buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline_in buf (i + 1) stop

(* Room for one more read: recycle consumed bytes first, and grow only
   up to [max_bytes + chunk] — [read_frame] never reads while more than
   [max_bytes] unterminated bytes are buffered. *)
let make_room r ~max_bytes =
  let cap = Bytes.length r.buf in
  if r.len + chunk > cap then begin
    let live = r.len - r.pos in
    let buf =
      if live + chunk <= cap then r.buf
      else Bytes.create (max (live + chunk) (min (2 * cap) (max_bytes + chunk)))
    in
    Bytes.blit r.buf r.pos buf 0 live;
    r.buf <- buf;
    r.scanned <- r.scanned - r.pos;
    r.pos <- 0;
    r.len <- live
  end

let rec read_frame r ~max_bytes =
  let nl = newline_in r.buf r.scanned r.len in
  if nl >= 0 then begin
    let start = r.pos in
    r.pos <- nl + 1;
    r.scanned <- nl + 1;
    if r.skipping then begin
      r.skipping <- false;
      read_frame r ~max_bytes
    end
    else if nl - start > max_bytes then Too_long
    else Frame (Bytes.sub_string r.buf start (nl - start))
  end
  else begin
    r.scanned <- r.len;
    if r.skipping then r.pos <- r.len;
    if r.len - r.pos > max_bytes then begin
      r.skipping <- true;
      r.pos <- r.len;
      Too_long
    end
    else begin
      make_room r ~max_bytes;
      match Unix.read r.fd r.buf r.len chunk with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_frame r ~max_bytes
      | exception Unix.Unix_error (err, _, _) -> Failed err
      | 0 -> Eof
      | n ->
          r.len <- r.len + n;
          read_frame r ~max_bytes
    end
  end

let write_frame fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd line off (len - off))
  in
  go 0

(* --- the server --- *)

let retry_after_ms = 100

let overloaded = Json.to_string (Protocol.overloaded_reply ~retry_after_ms)

let too_long =
  Json.to_string
    (Protocol.error_reply
       (Printf.sprintf "frame exceeds the %d-byte limit"
          Protocol.max_frame_bytes))

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  jobs : int;
  max_pending : int;
  shed : Vp_observe.Stats.counter;
  stopping : bool Atomic.t;
  (* [lock] guards [in_flight] and [conns]; [idle] is signalled when
     [in_flight] falls to zero. *)
  lock : Mutex.t;
  idle : Condition.t;
  mutable in_flight : int;
  conns : (Unix.file_descr, unit) Hashtbl.t;
}

let create ?(host = "127.0.0.1") ~port ~jobs ~max_pending ~shed () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 64
   with e ->
     close_quietly fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  {
    listen_fd = fd;
    port;
    jobs;
    max_pending;
    shed;
    stopping = Atomic.make false;
    lock = Mutex.create ();
    idle = Condition.create ();
    in_flight = 0;
    conns = Hashtbl.create 16;
  }

let port t = t.port

let close t = close_quietly t.listen_fd

let stop t = Atomic.set t.stopping true

let stopping t = Atomic.get t.stopping

let install_signal_handlers t =
  let ignore_bad_signal f =
    (* SIGPIPE etc. do not exist on every platform. *)
    try f () with Invalid_argument _ | Sys_error _ -> ()
  in
  ignore_bad_signal (fun () -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore);
  let to_stop s =
    ignore_bad_signal (fun () ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> stop t)))
  in
  to_stop Sys.sigterm;
  to_stop Sys.sigint

type handler = { reply : string -> string; release : unit -> unit }

let serve_connection fd handler =
  let r = reader fd in
  let rec loop () =
    let send line =
      match write_frame fd line with
      | () -> loop ()
      | exception Unix.Unix_error _ -> ()
    in
    match read_frame r ~max_bytes:Protocol.max_frame_bytes with
    | Frame line -> send (handler.reply line)
    | Too_long -> send too_long
    | Eof | Failed _ -> ()
  in
  Fun.protect ~finally:handler.release loop

(* Admits [fd] unless [max_pending] connections are already in flight. *)
let admit t fd =
  Mutex.protect t.lock (fun () ->
      if t.in_flight >= t.max_pending then false
      else begin
        t.in_flight <- t.in_flight + 1;
        Hashtbl.replace t.conns fd ();
        true
      end)

(* Under [lock], so [drain] never shuts down a closed (or reused) fd. *)
let release t fd =
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.conns fd;
      close_quietly fd;
      t.in_flight <- t.in_flight - 1;
      if t.in_flight = 0 then Condition.broadcast t.idle)

let shed t fd =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr t.shed;
  (try write_frame fd overloaded with Unix.Unix_error _ -> ());
  close_quietly fd

let accept_one t pool connection =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | fd, _ ->
      if stopping t then close_quietly fd
      else if not (admit t fd) then shed t fd
      else
        Vp_parallel.Pool.submit pool (fun () ->
            Fun.protect
              ~finally:(fun () -> release t fd)
              (fun () -> serve_connection fd (connection ())))

let drain t =
  close t;
  Mutex.protect t.lock (fun () ->
      (* Half-close every in-flight connection's read side so a handler
         blocked in [Unix.read] sees EOF and winds down. *)
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns;
      while t.in_flight > 0 do
        Condition.wait t.idle t.lock
      done)

let serve t ~connection ~epilogue =
  (* [~clamp:false] because connection handlers block in [Unix.read]
     rather than compute: a 4-job server must multiplex 4 live
     connections even on a 1-core host, where the clamp would leave the
     pool workerless and [submit] would serve connections inline in the
     accept loop (no concurrency, no shedding). *)
  let pool = Vp_parallel.Pool.create ~clamp:false ~jobs:(t.jobs + 1) () in
  Fun.protect
    ~finally:(fun () ->
      drain t;
      Fun.protect
        ~finally:(fun () -> Vp_parallel.Pool.shutdown pool)
        epilogue)
    (fun () ->
      while not (stopping t) do
        match Unix.select [ t.listen_fd ] [] [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ :: _, _, _ -> accept_one t pool connection
      done)
