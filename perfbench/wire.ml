(* One client connection speaking the layout server's newline-delimited
   JSON frames. Frames are sent as pre-encoded strings and replies are
   returned raw, so the load generator spends no time on JSON while a
   request is in flight; replies are decoded and checked afterwards. *)

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable off : int;
  mutable len : int;
  acc : Buffer.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  { fd; chunk = Bytes.create 65536; off = 0; len = 0; acc = Buffer.create 512 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t frame =
  let line = frame ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off < n then go (off + Unix.write_substring t.fd line off (n - off))
  in
  go 0

(* Only the [len] unread bytes at [off] are searched: the rest of the chunk
   holds stale bytes of earlier replies. *)
let newline t =
  let stop = t.off + t.len in
  let rec go i =
    if i >= stop then None
    else if Bytes.get t.chunk i = '\n' then Some i
    else go (i + 1)
  in
  go t.off

let rec recv t =
  match newline t with
  | Some i ->
      Buffer.add_subbytes t.acc t.chunk t.off (i - t.off);
      let consumed = i + 1 - t.off in
      t.off <- i + 1;
      t.len <- t.len - consumed;
      let line = Buffer.contents t.acc in
      Buffer.clear t.acc;
      line
  | _ ->
      Buffer.add_subbytes t.acc t.chunk t.off t.len;
      t.off <- 0;
      t.len <- 0;
      let n = Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) in
      if n = 0 then raise End_of_file;
      t.len <- n;
      recv t

(* One request, one reply. *)
let rpc t frame =
  send t frame;
  recv t

let is_ok reply = String.starts_with ~prefix:{|{"status":"ok"|} reply
