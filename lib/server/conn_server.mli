(** The connection core shared by {!Daemon} and [Vp_router.Router]:
    listening, admission, shedding, bounded newline framing and drain.

    One [t] owns one listening socket. {!serve} runs the accept loop in
    the calling domain and gives each admitted connection a connection
    domain — thread-per-connection, with OCaml domains as the threads.
    Domains are spawned on demand: a connection goes to a parked
    domain if there is one, else to a new domain while fewer than
    [jobs] were spawned, else it waits in a queue for the first domain
    whose connection ends. So [jobs] caps concurrent connections and
    [jobs = 1] serves strictly sequentially. A domain whose connection
    ends takes the next queued one or parks; domains exit only when
    the server drains, so a server runs as many connection domains as
    it has ever served connections at once — none while no client has
    connected, because every minor collection stops every domain of
    the process. A parked domain is claimed under the lock when a
    connection is accepted, so two connections accepted back to back
    never both go to it. A connection reads one request frame at a
    time and writes the handler's reply before reading the next.

    The gauge [server.connection_domains] holds the live connection
    domains of every server in the process, set on each spawn and exit.

    Backpressure is explicit: when [max_pending] connections are already
    in flight, a new connection gets one {!overloaded} frame and is
    closed before a byte of it is read. So does an admitted connection
    whose domain could not be spawned.

    Shutdown is graceful: {!stop} only raises a flag. The accept loop
    notices it within its 50 ms [select] interval, closes the listening
    socket, half-closes every in-flight connection's read side so a
    handler blocked on a read sees EOF, waits on a condition until the
    in-flight count reaches zero, joins every connection domain and
    runs the server's epilogue.

    Every buffer is bounded: a request frame by
    {!Protocol.max_frame_bytes} (past it the client gets one [error]
    reply, the rest of that frame is skipped and the connection stays
    usable), a reply frame by {!Protocol.max_reply_bytes} (see
    {!read_frame}). *)

type t

val create :
  ?host:string ->
  port:int ->
  jobs:int ->
  max_pending:int ->
  shed:Vp_observe.Stats.counter ->
  unit ->
  t
(** Binds and listens immediately, so {!port} is known before {!serve}
    runs ([port 0] asks the kernel for an ephemeral port). [host]
    defaults to ["127.0.0.1"]. [shed] counts shed connections (under
    {!Vp_observe.Switch}).
    @raise Unix.Unix_error if the address cannot be bound. *)

val max_jobs : int
(** The largest [jobs] a process can serve with: the runtime's domain
    limit ([Max_domains], 128 in OCaml 5.1 on 64-bit) less one for the
    accept loop. A server that runs long-lived domains of its own (the
    router's supervisor) counts them too; {!create} itself does not
    check. Domains that handlers spawn for one request (a
    [Vp_parallel.Pool]) are not counted: near the limit such a spawn
    can fail, and that request gets an error reply. *)

val port : t -> int
(** The actually bound port (resolves port [0]). *)

val close : t -> unit
(** Closes the listening socket of a server whose {!serve} will never
    run. *)

val stop : t -> unit
(** Requests a graceful drain. Only sets a flag — safe from a signal
    handler, a worker mid-request or another domain. *)

val stopping : t -> bool

val install_signal_handlers : t -> unit
(** Routes SIGTERM and SIGINT to {!stop} and ignores SIGPIPE, so a
    client that disconnects mid-reply surfaces as [EPIPE] instead of
    killing the process. *)

type handler = {
  reply : string -> string;
      (** One request frame to one reply frame, both without their
          newline. Must not raise. *)
  release : unit -> unit;  (** Runs once when the connection ends. *)
}

val serve : t -> connection:(unit -> handler) -> epilogue:(unit -> unit) -> unit
(** Runs the accept loop until {!stop}, calling [connection] in the
    domain that serves each admitted connection. Then drains as
    described above, calling [epilogue] after the last connection ended
    and its domain was joined — also when the loop dies by exception.
    Call at most once. *)

val overloaded : string
(** The encoded [overloaded] frame with its [retry_after_ms] hint. *)

(** {2 Framing} *)

type reader
(** A buffered newline-frame reader over one stream socket. *)

val reader : Unix.file_descr -> reader

type frame =
  | Frame of string  (** One frame, without its newline. *)
  | Too_long
      (** The frame passed [max_bytes]. Its bytes so far are dropped
          and the next {!read_frame} skips the rest of it. *)
  | Eof
  | Failed of Unix.error

val read_frame : reader -> max_bytes:int -> frame
(** The next frame. Never buffers more than [max_bytes] plus one 8 KiB
    read of an unterminated frame. *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes the frame and its newline.
    @raise Unix.Unix_error when the peer is gone. *)
