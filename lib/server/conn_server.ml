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

(* [Max_domains] in OCaml 5.1's [caml/domain.h], less the accept loop's
   domain: spawning past it fails. *)
let max_jobs = (if Sys.word_size = 64 then 128 else 16) - 1

(* Live connection domains of every server in the process. Set on each
   spawn and exit whatever the switch says: both are rare, and a gauge
   that missed one would be wrong for the rest of the run. *)
let g_domains = Vp_observe.Stats.gauge "server.connection_domains"

let domains_lock = Mutex.create ()

let live_domains = ref 0

let count_domains d =
  Mutex.protect domains_lock (fun () ->
      live_domains := !live_domains + d;
      Vp_observe.Stats.set_gauge g_domains !live_domains)

(* A connection domain's mailbox while it is parked: [dispatch] puts the
   next connection in [next] and signals [wake]. *)
type slot = { mutable next : Unix.file_descr option; wake : Condition.t }

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  jobs : int;
  max_pending : int;
  shed : Vp_observe.Stats.counter;
  stopping : bool Atomic.t;
  (* [lock] guards every mutable field but [domains], and [conns]/[queued];
     [idle] is signalled when [in_flight] falls to zero. *)
  lock : Mutex.t;
  idle : Condition.t;
  mutable in_flight : int;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  (* Connection domains: every one spawned, in [domains] (touched by the
     accept loop only); the [parked] ones have no connection, the rest
     serve one. [queued] holds admitted connections while all [jobs]
     domains serve. *)
  mutable parked : slot list;
  queued : Unix.file_descr Queue.t;
  mutable domains : unit Domain.t list;
  mutable draining : bool;
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
    parked = [];
    queued = Queue.create ();
    domains = [];
    draining = false;
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

let send_overloaded t fd =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr t.shed;
  try write_frame fd overloaded with Unix.Unix_error _ -> ()

let shed t fd =
  send_overloaded t fd;
  close_quietly fd

(* Under [lock]: the next connection for a domain whose connection
   ended — a queued one, else whatever [dispatch] hands it while it is
   parked — or [None] once the server drains. *)
let next_connection t slot =
  match Queue.take_opt t.queued with
  | Some fd -> Some fd
  | None ->
      slot.next <- None;
      t.parked <- slot :: t.parked;
      while slot.next = None && not t.draining do
        Condition.wait slot.wake t.lock
      done;
      slot.next

(* A connection domain: serves [fd], then whatever [next_connection]
   hands it. A raise from a handler ends that connection only. *)
let rec worker t connection slot fd =
  (try
     Fun.protect
       ~finally:(fun () -> release t fd)
       (fun () -> serve_connection fd (connection ()))
   with _ -> ());
  match Mutex.protect t.lock (fun () -> next_connection t slot) with
  | Some fd -> worker t connection slot fd
  | None -> count_domains (-1)

(* Gives the admitted [fd] a connection domain: a parked one, a new one
   while fewer than [jobs] were spawned, or else a place in [queued].
   The parked domain is taken under the lock, here, so two connections
   accepted back to back never both go to it. *)
let dispatch t connection fd =
  let handed =
    Mutex.protect t.lock (fun () ->
        match t.parked with
        | slot :: rest ->
            t.parked <- rest;
            slot.next <- Some fd;
            Condition.signal slot.wake;
            true
        | [] when List.length t.domains < t.jobs -> false
        | [] ->
            Queue.add fd t.queued;
            true)
  in
  if not handed then begin
    count_domains 1;
    let slot = { next = None; wake = Condition.create () } in
    match Domain.spawn (fun () -> worker t connection slot fd) with
    | d -> t.domains <- d :: t.domains
    | exception _ ->
        count_domains (-1);
        send_overloaded t fd;
        release t fd
  end

let accept_one t connection =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | fd, _ ->
      if stopping t then close_quietly fd
      else if not (admit t fd) then shed t fd
      else dispatch t connection fd

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
      done;
      t.draining <- true;
      List.iter (fun slot -> Condition.signal slot.wake) t.parked);
  List.iter Domain.join t.domains;
  t.domains <- []

let serve t ~connection ~epilogue =
  Fun.protect
    ~finally:(fun () ->
      drain t;
      epilogue ())
    (fun () ->
      while not (stopping t) do
        match Unix.select [ t.listen_fd ] [] [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ :: _, _, _ -> accept_one t connection
      done)
