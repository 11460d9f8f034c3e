(* The [cluster] workload: `vp cluster` with CLI defaults (3 shards),
   driven by two closed-loop connections. Set-up opens the sessions and
   ingests a drifting stream into each; the timed mix is about 90% reads
   (alternating layout and history, sessions drawn from a seeded skewed
   distribution) and about 10% ingests that continue a session's stream.
   The router hop and framing dominate here while the WAL and the
   optimizer are nearly idle, so a WAL or cost-model change should leave
   this workload unchanged.

   Reads and ingests go to disjoint halves of the sessions: every ingest
   can add a decision to its session's history, and read sessions whose
   histories grew during the run would make the read cost drift with the
   run's length. *)

open Common

let sessions = 16

let ingest_share = 0.1

let clients = Serve.clients

let session_name s = Printf.sprintf "k%02d" s

let stream_of s = s mod Streams.pool

(* Session [s] belongs to client [s mod clients], so each session's
   ingests stay ordered by [seq]; [lo, hi) picks the read or write half. *)
let owned k lo hi =
  Array.of_list
    (List.filter (fun s -> s mod clients = k) (List.init (hi - lo) (( + ) lo)))

(* Opens the sessions and ingests each one's stream. The first ingest of
   every session is sent on one connection, so each shard's first WAL
   append happens before the clients run concurrently (see
   {!Serve.warm_up}). *)
let preload inputs conns ingested =
  let n = Array.length ingested in
  for s = 0 to n - 1 do
    let session = session_name s and i = stream_of s in
    Serve.expect_ok conns.(0) (Streams.open_frame inputs i ~session);
    Serve.expect_ok conns.(0) (Streams.ingest_frame inputs i ~session ~seq:1)
  done;
  Serve.on_threads (fun k ->
      Array.iter
        (fun s ->
          let session = session_name s and i = stream_of s in
          for seq = 2 to Streams.stream_queries do
            Serve.expect_ok conns.(k)
              (Streams.ingest_frame inputs i ~session ~seq)
          done;
          ingested.(s) <- Streams.stream_queries)
        (owned k 0 n))

(* Zipf(1) over [own]. *)
let sampler rng own =
  let n = Array.length own in
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = sum w in
  let cdf = Array.make n 0.0 in
  ignore
    (Array.fold_left
       (fun (i, acc) x ->
         let acc = acc +. (x /. total) in
         cdf.(i) <- acc;
         (i + 1, acc))
       (0, 0.0) w);
  fun () ->
    let u = Random.State.float rng 1.0 in
    let rec find i =
      if i >= n - 1 || u < cdf.(i) then own.(i) else find (i + 1)
    in
    find 0

type outcome = {
  reads : Samples.t;
  ingests : Samples.t;
  done_at : Samples.t;  (** completion of every op, seconds since the start *)
  all_ms : Samples.t;  (** every op's latency, in the order of [done_at] *)
  mutable refused : int;
  mutable error : string option;
}

let client inputs conn ingested ~seed k ~t0 ~deadline =
  let o =
    {
      reads = Samples.create ();
      ingests = Samples.create ();
      done_at = Samples.create ();
      all_ms = Samples.create ();
      refused = 0;
      error = None;
    }
  in
  let timed samples frame =
    let t1 = now () in
    let reply = Wire.rpc conn frame in
    let t2 = now () in
    let ms = (t2 -. t1) *. 1000.0 in
    Samples.add samples ms;
    Samples.add o.all_ms ms;
    Samples.add o.done_at (t2 -. t0);
    if not (Wire.is_ok reply) then o.refused <- o.refused + 1;
    Wire.is_ok reply
  in
  let rng = Random.State.make [| seed; k |] in
  let readers = owned k 0 (sessions / 2) in
  let writers = owned k (sessions / 2) sessions in
  let pick = sampler rng readers in
  let history = ref false in
  (try
     while now () < deadline do
       if Random.State.float rng 1.0 < ingest_share then begin
         let s = writers.(Random.State.int rng (Array.length writers)) in
         let seq = ingested.(s) + 1 in
         let session = session_name s in
         let frame = Streams.ingest_frame inputs (stream_of s) ~session ~seq in
         if timed o.ingests frame then ingested.(s) <- seq
       end
       else begin
         let session = session_name (pick ()) in
         history := not !history;
         ignore
           (timed o.reads
              (if !history then Streams.history_frame ~session
               else Streams.layout_frame ~session))
       end
     done
   with e -> o.error <- Some (Printexc.to_string e));
  o

(* Closing every session returns its final history, which must be
   byte-equal to an in-process replay of exactly the queries it was fed. *)
let check_histories inputs conn ingested =
  let bad = ref 0 in
  for s = 0 to sessions - 1 do
    let session = session_name s in
    let reply = Wire.rpc conn (Streams.close_frame ~session) in
    let expected =
      Inproc.expected_history
        (Streams.prefix inputs (stream_of s) ingested.(s))
    in
    if Streams.member_string "history" reply <> Some expected then begin
      incr bad;
      fail "cluster %s: history after %d ingests differs from the replay"
        session ingested.(s)
    end
  done;
  !bad

let run ~vp ~work_dir ~seed ~seconds =
  let (inputs, fleet, ingested), setup_s =
    repeated_setup ~times:3
      ~setup:(fun () ->
        let inputs = Streams.make ~seed in
        let fleet = Serve.start ~vp ~work_dir ~cluster:true in
        ignore (Fleet.shards (fst fleet));
        let ingested = Array.make sessions 0 in
        preload inputs (snd fleet) ingested;
        (inputs, fleet, ingested))
      ~teardown:(fun (_, f, _) -> Serve.stop f)
  in
  Fun.protect
    ~finally:(fun () -> Serve.stop fleet)
    (fun () ->
      let router, conns = fleet in
      let outcomes = Array.make clients None in
      let t0 = now () in
      let deadline = t0 +. seconds in
      Serve.on_threads (fun k ->
          outcomes.(k) <-
            Some (client inputs conns.(k) ingested ~seed k ~t0 ~deadline));
      let elapsed = now () -. t0 in
      let outcomes = List.filter_map Fun.id (Array.to_list outcomes) in
      let counters = Serve.fleet_counters router.Fleet.port in
      let rss = Fleet.peak_rss_mib router in
      let gather f = Samples.concat (List.map f outcomes) in
      let reads = gather (fun o -> o.reads) in
      let ingests = gather (fun o -> o.ingests) in
      let errors = List.filter_map (fun o -> o.error) outcomes in
      List.iter (fun e -> fail "cluster client: %s" e) errors;
      let refused = List.fold_left (fun a o -> a + o.refused) 0 outcomes in
      if refused > 0 then fail "cluster: %d ops refused" refused;
      let bad = check_histories inputs conns.(0) ingested in
      let ops = Array.length reads + Array.length ingests in
      let attempted = max 1 (ops + List.length errors) in
      let failed = min attempted (refused + bad + List.length errors) in
      let rate, p50, p99, windows =
        windowed ~elapsed
          (Array.map2
             (fun at ms -> (at, ms))
             (gather (fun o -> o.done_at))
             (gather (fun o -> o.all_ms)))
      in
      let lat name s q =
        metric name "ms" (percentile s q) ~count:(Array.length s)
      in
      let detail =
        [
          metric "setup_s" "s" setup_s ~count:3;
          metric "ops_per_s" "1/s" (float_of_int ops /. elapsed) ~count:ops;
          metric "failed_share" "ratio"
            (float_of_int failed /. float_of_int attempted)
            ~count:attempted;
          lat "ingest_p50_ms" ingests 0.5;
          lat "ingest_p99_ms" ingests 0.99;
          lat "read_p50_ms" reads 0.5;
          lat "read_p99_ms" reads 0.99;
        ]
        @ counters
      in
      let e2e =
        [
          metric "setup_s" "s" setup_s ~count:3;
          metric "ops_per_s" "1/s" rate ~count:windows;
          metric "op_p50_ms" "ms" p50 ~count:windows;
          metric "op_p99_ms" "ms" p99 ~count:windows;
          metric "peak_rss_mib" "MiB" rss;
        ]
      in
      (detail, e2e, attempted, failed))
