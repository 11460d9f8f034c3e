(* Shared helpers for the test suite: alcotest testables, qcheck generators
   for workloads and partitionings, small fixture tables, and the
   server-test fixtures (temp dirs, daemons, ports, clients). *)

open Vp_core

let attr_set = Alcotest.testable Attr_set.pp Attr_set.equal

let partitioning = Alcotest.testable Partitioning.pp Partitioning.equal

let close ?(eps = 1e-9) () = Alcotest.float eps

(* --- fixtures --- *)

(* The paper's Section 1.1 example: PartSupp with Q1/Q2. *)
let partsupp =
  Table.make ~name:"partsupp" ~row_count:8_000_000
    ~attributes:
      [
        Attribute.make "PartKey" Attribute.Int32;
        Attribute.make "SuppKey" Attribute.Int32;
        Attribute.make "AvailQty" Attribute.Int32;
        Attribute.make "SupplyCost" Attribute.Decimal;
        Attribute.make "Comment" (Attribute.Varchar 199);
      ]

let partsupp_q1 =
  Query.make ~name:"Q1"
    ~references:(Attr_set.of_list [ 0; 1; 2; 3 ])
    ()

let partsupp_q2 =
  Query.make ~name:"Q2" ~references:(Attr_set.of_list [ 2; 3; 4 ]) ()

let partsupp_workload = Workload.make partsupp [ partsupp_q1; partsupp_q2 ]

(* A tiny table whose costs are easy to compute by hand. *)
let tiny =
  Table.make ~name:"tiny" ~row_count:1000
    ~attributes:
      [
        Attribute.make "a" Attribute.Int32;
        Attribute.make "b" Attribute.Decimal;
        Attribute.make "c" (Attribute.Char 20);
      ]

(* --- requests --- *)

(* A request priced through the reference session [Delta.full] over
   [cost], unless [delta] gives another factory. Outside the cost models
   no request has a default session; the tests build theirs here. *)
let request ?budget ?cancel ?label ?delta ~cost w =
  let n = Table.attribute_count (Workload.table w) in
  let delta = Option.value delta ~default:(Partitioner.Delta.full ~n cost) in
  Partitioner.Request.make ?budget ?cancel ?label ~delta ~cost w

(* --- qcheck generators --- *)

let gen_partitioning n =
  QCheck2.Gen.(
    map
      (fun seed ->
        let state = Random.State.make [| seed |] in
        Enumeration.random_partitioning (Random.State.int state) n)
      int)

(* A random workload over [n] attributes with 1..q_max queries. *)
let gen_workload ?(rows = 100_000) n q_max =
  QCheck2.Gen.(
    let gen_query i =
      map
        (fun mask ->
          let mask = 1 + (abs mask mod ((1 lsl n) - 1)) in
          Query.make
            ~name:(Printf.sprintf "q%d" i)
            ~references:(Attr_set.of_mask mask)
            ())
        int
    in
    let* q_count = int_range 1 q_max in
    let* queries =
      flatten_l (List.init q_count gen_query)
    in
    let attributes =
      List.init n (fun i ->
          Attribute.make
            (Printf.sprintf "c%d" i)
            (match i mod 3 with
            | 0 -> Attribute.Int32
            | 1 -> Attribute.Decimal
            | _ -> Attribute.Char (5 + i)))
    in
    let table = Table.make ~name:"rand" ~attributes ~row_count:rows in
    return (Workload.make table queries))

let valid_partitioning_of_workload p w =
  let n = Table.attribute_count (Workload.table w) in
  Partitioning.attribute_count p = n
  &&
  let union =
    List.fold_left Attr_set.union Attr_set.empty (Partitioning.groups p)
  in
  Attr_set.equal union (Attr_set.full n)

let qtest = QCheck_alcotest.to_alcotest

(* --- server fixtures --- *)

let unwrap = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp-test-%s-%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Port allocation, the race-free way: every server in the tree can
   bind port 0 and report the port the kernel actually gave it
   ([Daemon.create ~port:0] + [Daemon.port], same for the router), so
   tests NEVER pick a number and hope it is still free by the time the
   server binds it. [with_daemon] below is that pattern packaged.

   [ephemeral_port] is for the one legitimate exception — a test that
   must know a port BEFORE the server exists (e.g. restarting a daemon
   on the address a previous life owned). It still asks the kernel
   (bind 0, read back the name) rather than guessing from a range, and
   the server that reuses it binds with SO_REUSEADDR, so the window
   between close and re-bind does not 50/50 the suite the way a
   hardcoded port shared across parallel test runners would. *)
let ephemeral_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> assert false)

let with_daemon ?(jobs = 2) ?(max_pending = 64) ?data_dir f =
  let d = Vp_server.Daemon.create ~port:0 ~jobs ~max_pending ?data_dir () in
  let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
  Fun.protect
    ~finally:(fun () ->
      Vp_server.Daemon.stop d;
      Domain.join server)
    (fun () -> f (Vp_server.Daemon.port d))

let with_client port f =
  let c = Vp_client.Client.create ~port () in
  Fun.protect ~finally:(fun () -> Vp_client.Client.close c) (fun () -> f c)

(* --- raw-socket fuzz helpers: hostile bytes, not the typed client --- *)

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_raw fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let read_reply_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> Alcotest.fail "server closed the connection instead of replying"
    | n ->
        let stop = ref None in
        for i = 0 to n - 1 do
          if !stop = None && Bytes.get chunk i = '\n' then stop := Some i
        done;
        (match !stop with
        | Some i -> Buffer.add_subbytes buf chunk 0 i
        | None ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ();
  Buffer.contents buf

let read_reply fd =
  match Vp_observe.Json.of_string (read_reply_line fd) with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "unparseable reply: %s" msg

(* A reply's envelope, decoded with [Protocol.status]. *)
let status_of reply =
  Vp_observe.Json.Codec.decode Vp_server.Protocol.status reply

let status =
  Alcotest.testable
    (fun ppf -> function
      | Vp_server.Protocol.Ok_reply -> Fmt.string ppf "ok"
      | Error_reply msg -> Fmt.pf ppf "error %S" msg
      | Overloaded ms -> Fmt.pf ppf "overloaded %d" ms)
    ( = )

let expect_error fd what frame =
  send_raw fd frame;
  match status_of (read_reply fd) with
  | Error_reply msg ->
      Alcotest.(check bool) (what ^ " error is descriptive") true (msg <> "")
  | _ -> Alcotest.failf "%s: not answered with a clean error" what
