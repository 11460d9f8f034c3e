(* The observability layer's own contract: lock-free counters whose
   per-domain cells merge to the same total under any split of the work,
   monotone histogram quantiles, a JSON printer/parser that round-trips,
   spans that survive pool fan-out, and — the whole point — probes that
   are inert below their switch level. *)

module Switch = Vp_observe.Switch
module Stats = Vp_observe.Stats
module Trace = Vp_observe.Trace
module Json = Vp_observe.Json

(* Metrics are process-global and other suites touch the wired-in ones,
   so every check here is on a delta or on a test-private metric name. *)
let delta name f =
  let before = Stats.counter_value (Stats.snapshot ()) name in
  f ();
  Stats.counter_value (Stats.snapshot ()) name - before

(* --- counters, gauges, histograms --- *)

let test_counter_basics () =
  let c = Stats.counter "test.obs.basic" in
  let d =
    delta "test.obs.basic" (fun () ->
        Stats.incr c;
        Stats.incr c;
        Stats.add c 5;
        Stats.add c 0)
  in
  Alcotest.(check int) "2 incr + add 5 + add 0" 7 d

let test_counter_add_negative_rejected () =
  let c = Stats.counter "test.obs.negative" in
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Stats.add: negative increment") (fun () ->
      Stats.add c (-1))

let test_kind_mismatch_rejected () =
  ignore (Stats.counter "test.obs.kind");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Stats.gauge: \"test.obs.kind\" is already a counter")
    (fun () -> ignore (Stats.gauge "test.obs.kind"))

let test_gauge_last_write_wins () =
  let g = Stats.gauge "test.obs.gauge" in
  Stats.set_gauge g 3;
  Stats.set_gauge g 7;
  let snap = Stats.snapshot () in
  Alcotest.(check int) "last set value" 7
    (match List.assoc_opt "test.obs.gauge" snap.Stats.gauges with
    | Some v -> v
    | None -> Alcotest.fail "gauge missing from snapshot")

let test_histogram_summary () =
  let h = Stats.histogram "test.obs.hist" in
  List.iter (Stats.observe h) [ 0.5; 1.0; 2.0; 4.0; -1.0 ];
  let snap = Stats.snapshot () in
  let s =
    match List.assoc_opt "test.obs.hist" snap.Stats.histograms with
    | Some s -> s
    | None -> Alcotest.fail "histogram missing from snapshot"
  in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "sum" 6.5 s.Stats.sum;
  (* Bucket representatives are upper bounds: 0.5 -> 1, 1 -> 2, 2 -> 4,
     4 -> 8, and the negative observation lands in bucket 0. *)
  Alcotest.(check (float 0.0)) "p0 is the non-positive bucket" 0.0
    (Stats.quantile s 0.0);
  Alcotest.(check (float 0.0)) "median (rank 3 of 5)" 2.0
    (Stats.quantile s 0.5);
  Alcotest.(check (float 0.0)) "max" 8.0 (Stats.quantile s 1.0)

let test_quantile_edges () =
  let empty = { Stats.count = 0; sum = 0.0; buckets = Array.make 64 0 } in
  Alcotest.(check (float 0.0)) "empty summary" 0.0 (Stats.quantile empty 0.5);
  let some = { Stats.count = 1; sum = 1.0; buckets = Array.make 64 0 } in
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "q = %g rejected" q)
        (Invalid_argument "Stats.quantile: rank outside [0, 1]")
        (fun () -> ignore (Stats.quantile some q)))
    [ -0.1; 1.5; Float.nan ]

(* --- property: merging per-domain cells is split-invariant --- *)

(* Whatever way a multiset of increments is split across domains, the
   merged snapshot sums to the same total: the merge is associative and
   commutative. Each run scatters the increments over 3 spawned domains
   plus the main one. *)
let prop_counter_merge_split_invariant =
  QCheck2.Test.make ~count:50
    ~name:"counter merge: any split across domains sums the same"
    QCheck2.Gen.(pair (small_list (int_range 0 50)) (int_range 1 3))
    (fun (increments, splits) ->
      let c = Stats.counter "test.obs.merge" in
      let total = List.fold_left ( + ) 0 increments in
      let chunks = Array.make (splits + 1) [] in
      List.iteri
        (fun i n -> chunks.(i mod (splits + 1)) <- n :: chunks.(i mod (splits + 1)))
        increments;
      let observed =
        delta "test.obs.merge" (fun () ->
            (* chunk 0 on the main domain, the rest on spawned domains *)
            List.iter (Stats.add c) chunks.(0);
            Array.sub chunks 1 splits
            |> Array.map (fun chunk ->
                   Domain.spawn (fun () -> List.iter (Stats.add c) chunk))
            |> Array.iter Domain.join)
      in
      observed = total)

(* Domains spawned and joined one at a time take over each other's
   cells: the totals stay exact and the registry does not grow with the
   number of domains a process has spawned. The domains are spawned
   directly, since a pool on a one-core host spawns none. *)
let test_exited_domain_cells_reused () =
  let c = Stats.counter "test.obs.reuse"
  and h = Stats.histogram "test.obs.reuse_hist" in
  let hist () =
    match
      List.assoc_opt "test.obs.reuse_hist" (Stats.snapshot ()).Stats.histograms
    with
    | Some s -> (s.Stats.count, s.Stats.sum)
    | None -> (0, 0.0)
  in
  let count0, sum0 = hist () in
  let observed =
    delta "test.obs.reuse" (fun () ->
        for _ = 1 to 300 do
          Domain.join
            (Domain.spawn (fun () ->
                 Stats.incr c;
                 Stats.observe h 0.5))
        done)
  in
  let count1, sum1 = hist () in
  Alcotest.(check int) "counter total" 300 observed;
  Alcotest.(check int) "histogram count" 300 (count1 - count0);
  Alcotest.(check (float 0.0)) "histogram sum" 150.0 (sum1 -. sum0);
  List.iter
    (fun name ->
      let cells = Stats.cell_count name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d cells <= 2" name cells)
        true (cells <= 2))
    [ "test.obs.reuse"; "test.obs.reuse_hist" ]

(* --- property: histogram quantiles are monotone in rank --- *)

let prop_quantile_monotone =
  QCheck2.Test.make ~count:200 ~name:"histogram quantile monotone in rank"
    QCheck2.Gen.(
      triple
        (array_size (return 64) (int_range 0 20))
        (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (buckets, q1, q2) ->
      let count = Array.fold_left ( + ) 0 buckets in
      let s = { Stats.count; sum = 0.0; buckets } in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile s lo <= Stats.quantile s hi)

(* --- property: JSON printer/parser round-trip --- *)

(* %.12g keeps 12 significant digits, so normalise generated floats
   through the printed representation first; the normalised value then
   survives print -> parse exactly. *)
let gen_json =
  QCheck2.Gen.(
    let atom =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) int;
          map
            (fun f ->
              let f = if Float.is_nan f then 0.0 else f in
              Json.Float (float_of_string (Printf.sprintf "%.12g" f)))
            (float_range (-1e9) 1e9);
          map (fun s -> Json.String s) (string_size (int_range 0 12));
        ]
    in
    let key = string_size ~gen:(char_range 'a' 'z') (int_range 0 6) in
    sized @@ fix (fun self n ->
        if n <= 0 then atom
        else
          oneof
            [
              atom;
              map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
              map
                (fun l -> Json.Obj l)
                (list_size (int_range 0 4) (pair key (self (n / 2))));
            ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"Json: of_string (to_string v) = v"
    gen_json (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string ~pretty:true v) = Ok v)

(* --- the pool regression: ambient observability state crosses domains --- *)

let test_pool_counters_visible_in_main_snapshot () =
  Switch.with_level Switch.Stats (fun () ->
      let c = Stats.counter "test.obs.pool" in
      let d =
        delta "test.obs.pool" (fun () ->
            Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
                ignore
                  (Vp_parallel.Pool.run pool
                     (List.init 8 (fun _ () -> Stats.incr c)))))
      in
      Alcotest.(check int) "8 task increments merged into snapshot" 8 d)

let test_pool_tasks_counted () =
  Switch.with_level Switch.Stats (fun () ->
      let d =
        delta "pool.tasks_run" (fun () ->
            ignore (Vp_parallel.Pool.run_list ~jobs:2 (List.init 5 (fun i () -> i))))
      in
      Alcotest.(check int) "every batch task counted" 5 d)

let test_pool_spans_nest_under_submitter () =
  Switch.with_level Switch.Trace (fun () ->
      Trace.clear ();
      Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
          Trace.with_span ~name:"submit" (fun () ->
              ignore
                (Vp_parallel.Pool.run pool
                   (List.init 6 (fun i () ->
                        Trace.with_span ~name:"leaf" (fun () -> i))))));
      let evs = Trace.events () in
      let find_all name =
        List.filter (fun (e : Trace.event) -> e.Trace.name = name) evs
      in
      let submit =
        match find_all "submit" with
        | [ e ] -> e
        | l -> Alcotest.failf "expected 1 submit span, got %d" (List.length l)
      in
      let tasks = find_all "pool:task" and leaves = find_all "leaf" in
      Alcotest.(check int) "6 task spans" 6 (List.length tasks);
      Alcotest.(check int) "6 leaf spans" 6 (List.length leaves);
      List.iter
        (fun (e : Trace.event) ->
          Alcotest.(check int)
            "task span is a child of the submitting span"
            submit.Trace.id e.Trace.parent)
        tasks;
      let task_ids = List.map (fun (e : Trace.event) -> e.Trace.id) tasks in
      List.iter
        (fun (e : Trace.event) ->
          Alcotest.(check bool)
            "leaf span is a child of its task span" true
            (List.mem e.Trace.parent task_ids))
        leaves)

(* --- the ring buffer sink --- *)

let test_ring_records_and_clears () =
  Switch.with_level Switch.Trace (fun () ->
      Trace.clear ();
      Trace.with_span ~name:"ok" (fun () -> ());
      (try Trace.with_span ~name:"boom" (fun () -> failwith "x")
       with Failure _ -> ());
      let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
      Alcotest.(check (list string))
        "both spans recorded, the raising one included" [ "ok"; "boom" ] names;
      Alcotest.(check int) "nothing overwritten" 0 (Trace.dropped ());
      Trace.clear ();
      Alcotest.(check int) "clear empties the sink" 0
        (List.length (Trace.events ())))

(* --- the switch: probes are inert when disabled --- *)

let test_disabled_probes_are_inert () =
  Switch.with_level Switch.Off (fun () ->
      Trace.clear ();
      let pool_d =
        delta "pool.tasks_run" (fun () ->
            Trace.with_span ~name:"invisible" (fun () ->
                ignore (Vp_parallel.Pool.run_list ~jobs:2 (List.init 4 (fun i () -> i)))))
      in
      Alcotest.(check int) "no pool counts below Stats" 0 pool_d;
      Alcotest.(check int) "no spans below Trace" 0
        (List.length (Trace.events ())))

let test_stats_level_has_no_spans () =
  Switch.with_level Switch.Stats (fun () ->
      Trace.clear ();
      Trace.with_span ~name:"invisible" (fun () -> ());
      Alcotest.(check int) "Stats level records no spans" 0
        (List.length (Trace.events ())))

let test_raise_to_never_lowers () =
  Switch.with_level Switch.Trace (fun () ->
      Switch.raise_to Switch.Stats;
      Alcotest.(check bool) "still tracing" true (Switch.trace_on ()));
  Switch.with_level Switch.Stats (fun () ->
      Switch.raise_to Switch.Trace;
      Alcotest.(check bool) "raised" true (Switch.trace_on ()))

let test_render_smoke () =
  let c = Stats.counter "test.obs.render" in
  Stats.incr c;
  let out = Stats.render (Stats.snapshot ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rendered table names the counter" true
    (contains out "test.obs.render")

(* Hostile-input bounds on the JSON parser: these are the server's first
   line of defence against malformed frames, so the errors must be
   descriptive, and legitimate input just inside each bound must still
   parse. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_json_depth_bound () =
  let nested n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  (match Json.of_string ~max_depth:8 (nested 8) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 8 under bound 8 should parse: %s" e);
  (match Json.of_string ~max_depth:8 (nested 9) with
  | Ok _ -> Alcotest.fail "depth 9 over bound 8 should be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the bound" true
        (contains e "nesting depth exceeds the maximum of 8"));
  match Json.of_string (nested (Json.default_max_depth + 1)) with
  | Ok _ -> Alcotest.fail "default depth bound should apply"
  | Error _ -> ()

let test_json_size_bound () =
  let s = {|{"k":"value"}|} in
  (match Json.of_string ~max_size:(String.length s) s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "input at the size bound should parse: %s" e);
  (match Json.of_string ~max_size:(String.length s - 1) s with
  | Ok _ -> Alcotest.fail "input over the size bound should be rejected"
  | Error e ->
      Alcotest.(check bool) "error names both sizes" true
        (contains e "13 bytes exceeds the 12-byte limit"));
  (* No [max_size] means no size bound at all. *)
  match Json.of_string (String.concat "" [ {|"|}; String.make 4096 'x'; {|"|} ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unbounded parse rejected: %s" e

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "negative add rejected" `Quick
      test_counter_add_negative_rejected;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_kind_mismatch_rejected;
    Alcotest.test_case "gauge last write wins" `Quick
      test_gauge_last_write_wins;
    Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "quantile edges" `Quick test_quantile_edges;
    Testutil.qtest prop_counter_merge_split_invariant;
    Alcotest.test_case "exited domains' cells reused" `Quick
      test_exited_domain_cells_reused;
    Testutil.qtest prop_quantile_monotone;
    Testutil.qtest prop_json_roundtrip;
    Alcotest.test_case "pool counters visible in main snapshot" `Quick
      test_pool_counters_visible_in_main_snapshot;
    Alcotest.test_case "pool tasks counted" `Quick test_pool_tasks_counted;
    Alcotest.test_case "pool spans nest under submitter" `Quick
      test_pool_spans_nest_under_submitter;
    Alcotest.test_case "ring buffer records and clears" `Quick
      test_ring_records_and_clears;
    Alcotest.test_case "disabled probes inert" `Quick
      test_disabled_probes_are_inert;
    Alcotest.test_case "stats level has no spans" `Quick
      test_stats_level_has_no_spans;
    Alcotest.test_case "raise_to never lowers" `Quick
      test_raise_to_never_lowers;
    Alcotest.test_case "render smoke" `Quick test_render_smoke;
    Alcotest.test_case "json depth bound" `Quick test_json_depth_bound;
    Alcotest.test_case "json size bound" `Quick test_json_size_bound;
  ]
