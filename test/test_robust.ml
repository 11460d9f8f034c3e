(* The robustness layer end to end: budget semantics, deterministic fault
   injection, journal durability, fault-tolerant pools, and
   graceful degradation of the searches and the experiment sweep. *)

open Vp_core
module Budget = Vp_robust.Budget
module Fault = Vp_robust.Fault
module Journal = Vp_robust.Journal
module Mix = Vp_robust.Mix

let disk = Vp_cost.Disk.default

(* A small deterministic workload: [n] INT columns, three overlapping
   queries — enough structure that every search has real work to do. *)
let workload ?(n = 6) () =
  let attributes =
    List.init n (fun j -> Attribute.make (Printf.sprintf "c%d" j) Attribute.Int32)
  in
  let table = Table.make ~name:"t" ~attributes ~row_count:1_000_000 in
  let full = (1 lsl n) - 1 in
  let queries =
    [
      Query.make ~name:"q0" ~weight:1.0 ~references:(Attr_set.of_mask 0b11) ();
      Query.make ~name:"q1" ~weight:2.0
        ~references:(Attr_set.of_mask (full lxor 0b11))
        ();
      Query.make ~name:"q2" ~weight:0.5 ~references:(Attr_set.of_mask full) ();
    ]
  in
  Workload.make table queries

(* {2 Budgets} *)

let test_budget_semantics () =
  (* Validation. *)
  (match Budget.create ~deadline_seconds:0.0 () with
  | _ -> Alcotest.fail "zero deadline should be rejected"
  | exception Invalid_argument _ -> ());
  (match Budget.create ~max_steps:(-1) () with
  | _ -> Alcotest.fail "negative steps should be rejected"
  | exception Invalid_argument _ -> ());
  (* Step counting and exhaustion. *)
  let b = Budget.create ~max_steps:3 () in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  Alcotest.(check bool) "tick 1" true (Budget.try_tick b);
  Alcotest.(check bool) "tick 2" true (Budget.try_tick b);
  Alcotest.(check bool) "tick 3" true (Budget.try_tick b);
  Alcotest.(check bool) "not yet exhausted" false (Budget.exhausted b);
  Alcotest.(check bool) "tick 4 fails" false (Budget.try_tick b);
  Alcotest.(check bool) "now exhausted" true (Budget.exhausted b);
  (* Sticky: every further tick fails/raises immediately. *)
  Alcotest.(check bool) "sticky try_tick" false (Budget.try_tick b);
  (match Budget.tick b with
  | () -> Alcotest.fail "tick on exhausted budget should raise"
  | exception Budget.Exhausted -> ());
  Alcotest.(check bool) "steps recorded" true (Budget.steps b >= 3);
  (* External exhaustion. *)
  let b2 = Budget.create () in
  Alcotest.(check bool) "fresh not exhausted" false (Budget.exhausted b2);
  Budget.exhaust b2;
  Alcotest.(check bool) "exhaust is sticky" true (Budget.exhausted b2);
  Alcotest.(check bool) "exhausted try_tick" false (Budget.try_tick b2);
  (* The unlimited budget is inert. *)
  let u = Budget.unlimited in
  Alcotest.(check bool) "unlimited not limited" false (Budget.is_limited u);
  for _ = 1 to 10 do
    Alcotest.(check bool) "unlimited ticks" true (Budget.try_tick u)
  done;
  Budget.exhaust u;
  Alcotest.(check bool) "unlimited cannot exhaust" false (Budget.exhausted u);
  Alcotest.(check int) "unlimited counts nothing" 0 (Budget.steps u);
  (* Deadline budgets exhaust by wall clock. *)
  let d = Budget.create ~deadline_seconds:0.01 () in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "past deadline" false (Budget.try_tick d)

let test_budget_ambient () =
  Alcotest.(check bool) "default is unlimited" false
    (Budget.is_limited (Budget.current ()));
  let b = Budget.create ~max_steps:5 () in
  Budget.with_current b (fun () ->
      Alcotest.(check bool) "installed" true (Budget.current () == b));
  Alcotest.(check bool) "restored" false (Budget.is_limited (Budget.current ()));
  (* Restored on exceptions too. *)
  (try
     Budget.with_current b (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false
    (Budget.is_limited (Budget.current ()))

(* {2 Journal} *)

let test_journal_roundtrip () =
  let path = Filename.temp_file "vp_journal" ".tsv" in
  let j = Journal.open_ path in
  Journal.record j ~key:"fig3" ~payload:"plain";
  Journal.record j ~key:"table1" ~payload:"with\ttab\nand newline \\ slash";
  Journal.record j ~key:"fig3" ~payload:"updated";
  Journal.close j;
  Alcotest.(check (list (pair string string)))
    "records in file order"
    [
      ("fig3", "plain");
      ("table1", "with\ttab\nand newline \\ slash");
      ("fig3", "updated");
    ]
    (Journal.load path);
  (* A crash mid-write leaves a torn line; load must skip it and keep the
     rest. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "torn-line-without-tab\nbad\tunclosed \\\n";
  close_out oc;
  let j = Journal.open_ path in
  Journal.record j ~key:"after" ~payload:"survives";
  Journal.close j;
  let records = Journal.load path in
  Alcotest.(check int) "torn lines skipped" 4 (List.length records);
  Alcotest.(check (pair string string))
    "record after torn line survives" ("after", "survives")
    (List.nth records 3);
  Sys.remove path;
  Alcotest.(check (list (pair string string))) "missing file loads empty" []
    (Journal.load path)

let test_journal_recover () =
  (* The WAL reader's torn-tail rule, against hand-damaged files: records
     are trusted only up to the first invalid one and the file is
     physically truncated there — unlike the lenient [load], which skips
     damage and keeps reading. *)
  let path = Filename.temp_file "vp_wal" ".tsv" in
  let j = Journal.open_ path in
  Journal.record j ~key:"1" ~payload:"alpha";
  Journal.record j ~key:"2" ~payload:"beta";
  Journal.record j ~key:"3" ~payload:"gamma";
  Journal.close j;
  let clean = [ ("1", "alpha"); ("2", "beta"); ("3", "gamma") ] in
  let clean_size = (Unix.stat path).Unix.st_size in
  let records, truncated = Journal.recover path in
  Alcotest.(check (list (pair string string))) "clean file intact" clean records;
  Alcotest.(check int) "clean file cuts nothing" 0 truncated;
  (* A crash mid-append leaves half a record with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "4\tdel";
  close_out oc;
  let records, truncated = Journal.recover path in
  Alcotest.(check (list (pair string string))) "torn tail dropped" clean records;
  Alcotest.(check int) "torn bytes counted" 5 truncated;
  Alcotest.(check int)
    "file truncated back to the valid prefix" clean_size
    (Unix.stat path).Unix.st_size;
  (* A flipped bit mid-file: the CRC catches it, and everything from the
     damaged record on is untrusted — a later append must never bury
     garbage mid-file. *)
  let j = Journal.open_ path in
  Journal.record j ~key:"4" ~payload:"delta";
  Journal.record j ~key:"5" ~payload:"epsilon";
  Journal.close j;
  let bytes =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Bytes.of_string s
  in
  let target = Bytes.index_from bytes clean_size 'd' in
  Bytes.set bytes target 'D';
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  Alcotest.(check (list (pair string string)))
    "lenient load skips the bad record but keeps the rest"
    (clean @ [ ("5", "epsilon") ])
    (Journal.load path);
  let records, truncated = Journal.recover path in
  Alcotest.(check (list (pair string string)))
    "recover trusts only the prefix before the damage" clean records;
  Alcotest.(check bool) "corrupt suffix measured" true (truncated > 0);
  Alcotest.(check int)
    "corrupt suffix cut from the file" clean_size
    (Unix.stat path).Unix.st_size;
  (* The recovered journal is append-ready. *)
  let j = Journal.open_ path in
  Journal.record j ~key:"4" ~payload:"delta again";
  Journal.close j;
  let records, truncated = Journal.recover path in
  Alcotest.(check int) "no damage after re-append" 0 truncated;
  Alcotest.(check (pair string string))
    "appended record survives recovery" ("4", "delta again")
    (List.nth records 3);
  Sys.remove path;
  Alcotest.(check (pair (list (pair string string)) int))
    "missing file recovers empty" ([], 0) (Journal.recover path)

(* {2 Fault plans} *)

let test_fault_decide () =
  (match Fault.create ~exn_rate:1.5 ~seed:1 () with
  | _ -> Alcotest.fail "rate > 1 should be rejected"
  | exception Invalid_argument _ -> ());
  (match Fault.create ~exn_rate:0.6 ~delay_rate:0.6 ~seed:1 () with
  | _ -> Alcotest.fail "rates summing past 1 should be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "disabled is disabled" false (Fault.enabled Fault.disabled);
  for i = 0 to 99 do
    Alcotest.(check bool) "disabled injects nothing" true
      (Fault.decide Fault.disabled ~site:"cost" ~index:i = Fault.Pass)
  done;
  let f = Fault.create ~exn_rate:0.2 ~delay_rate:0.1 ~seed:99 () in
  Alcotest.(check bool) "enabled" true (Fault.enabled f);
  (* Decisions are pure: same (seed, site, index), same action —
     regardless of call order or repetition. *)
  let snapshot () =
    List.init 200 (fun i -> Fault.decide f ~site:"pool:x" ~index:i)
  in
  Alcotest.(check bool) "decide is pure" true (snapshot () = snapshot ());
  let again = Fault.create ~exn_rate:0.2 ~delay_rate:0.1 ~seed:99 () in
  Alcotest.(check bool) "plans with equal seeds agree" true
    (snapshot ()
    = List.init 200 (fun i -> Fault.decide again ~site:"pool:x" ~index:i));
  (* Rates are approximately honoured over many indices. *)
  let n = 10_000 in
  let raised = ref 0 in
  for i = 0 to n - 1 do
    match Fault.decide f ~site:"cost" ~index:i with
    | Fault.Raise_exn -> incr raised
    | _ -> ()
  done;
  let rate = float_of_int !raised /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "observed exn rate %.3f near 0.2" rate)
    true
    (rate > 0.15 && rate < 0.25);
  (* Different sites draw independently. *)
  let other = List.init 200 (fun i -> Fault.decide f ~site:"pool:y" ~index:i) in
  Alcotest.(check bool) "sites are independent streams" true
    (snapshot () <> other)

let test_fault_from_env () =
  (* CI's fault-injection matrix job sets VP_FAULT_SEED; the plan must
     come up enabled there and disabled everywhere else, and either way
     behave deterministically. *)
  let f = Fault.from_env () in
  match Sys.getenv_opt "VP_FAULT_SEED" with
  | None | Some "" ->
      Alcotest.(check bool) "disabled without VP_FAULT_SEED" false
        (Fault.enabled f)
  | Some _ ->
      Alcotest.(check bool) "enabled with VP_FAULT_SEED" true (Fault.enabled f);
      let g = Fault.from_env () in
      List.iter
        (fun i ->
          Alcotest.(check bool) "env plan is reproducible" true
            (Fault.decide f ~site:"cost" ~index:i
            = Fault.decide g ~site:"cost" ~index:i))
        (List.init 500 Fun.id)

(* {2 Pool under fault injection} *)

let test_pool_faults () =
  let n = 50 in
  let tasks = List.init n (fun i -> (Printf.sprintf "t%d" i, fun () -> i * i)) in
  let clean =
    Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Vp_parallel.Pool.run_results pool tasks)
  in
  Alcotest.(check bool) "clean run all Ok" true
    (List.for_all (function Ok _ -> true | Error _ -> false) clean);
  let fault = Fault.create ~exn_rate:0.3 ~seed:1337 () in
  let faulty =
    Fault.with_current fault (fun () ->
        Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
            Vp_parallel.Pool.run_results pool tasks))
  in
  (* Totality: one result per task, no matter how many were killed. *)
  Alcotest.(check int) "one result per task" n (List.length faulty);
  let errors = ref 0 in
  List.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) "surviving value intact" (i * i) v
      | Error { Vp_parallel.Pool.label; exn; _ } ->
          incr errors;
          Alcotest.(check string) "error label" (Printf.sprintf "t%d" i) label;
          (match exn with
          | Fault.Injected _ -> ()
          | e -> Alcotest.failf "expected Injected, got %s" (Printexc.to_string e)))
    faulty;
  Alcotest.(check bool)
    (Printf.sprintf "at least 20%% injected (%d/%d)" !errors n)
    true
    (!errors * 5 >= n);
  (* Determinism: injection depends on (seed, label, position), not on
     scheduling — a sequential run fails the exact same tasks. *)
  let sequential =
    Fault.with_current fault (fun () ->
        Vp_parallel.Pool.with_pool ~jobs:1 (fun pool ->
            Vp_parallel.Pool.run_results pool tasks))
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same tasks fail at any job count" true
        ((match a with Ok _ -> true | Error _ -> false)
        = (match b with Ok _ -> true | Error _ -> false)))
    faulty sequential

(* {2 Searches under fault injection} *)

let test_cost_oracle_faults () =
  let w = workload () in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let hc = Vp_algorithms.Hillclimb.algorithm in
  (* A plan that exhausts the ambient budget on (almost) every cost call:
     the search must degrade to a valid Timed_out layout, not crash. *)
  let exhaust = Fault.create ~exhaust_rate:0.9 ~seed:5 () in
  let r =
    Budget.with_current (Budget.create ()) (fun () ->
        Fault.with_current exhaust (fun () -> Partitioner.exec hc (Testutil.request ~cost:oracle w)))
  in
  (match r.Partitioner.Response.status with
  | Partitioner.Timed_out _ -> ()
  | Partitioner.Complete -> Alcotest.fail "expected Timed_out under exhaustion");
  Alcotest.(check bool) "degraded layout still valid" true
    (Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning w);
  (* Without an ambient budget, Exhaust_budget has nothing to exhaust and
     the run completes untouched. *)
  let r2 = Fault.with_current exhaust (fun () -> Partitioner.exec hc (Testutil.request ~cost:oracle w)) in
  (match r2.Partitioner.Response.status with
  | Partitioner.Complete -> ()
  | Partitioner.Timed_out _ ->
      Alcotest.fail "unlimited ambient budget cannot be exhausted");
  (* An exception-injecting plan surfaces Injected to the caller. *)
  let explode = Fault.create ~exn_rate:1.0 ~seed:5 () in
  match Fault.with_current explode (fun () -> Partitioner.exec hc (Testutil.request ~cost:oracle w)) with
  | _ -> Alcotest.fail "expected Injected"
  | exception Fault.Injected _ -> ()

let test_brute_force_deadline () =
  (* The acceptance scenario: BruteForce on a 16-attribute table — a
     10-billion-candidate space — under a 1s wall-clock budget returns a
     valid, Timed_out layout no worse than Row. Every attribute gets a
     distinct query signature (query [b] touches the attributes whose
     index has bit [b] set), so primary partitions cannot collapse the
     atoms and the enumeration really faces B(16) candidates. *)
  let n = 16 in
  let w =
    let attributes =
      List.init n (fun j ->
          Attribute.make
            (Printf.sprintf "c%d" j)
            (match j mod 3 with
            | 0 -> Attribute.Int32
            | 1 -> Attribute.Decimal
            | _ -> Attribute.Char (5 + j)))
    in
    let table = Table.make ~name:"wide" ~attributes ~row_count:1_000_000 in
    let mask_of_bit b =
      List.fold_left
        (fun m i -> if i land (1 lsl b) <> 0 then m lor (1 lsl i) else m)
        0
        (List.init n Fun.id)
    in
    let queries =
      List.init 4 (fun b ->
          Query.make
            ~name:(Printf.sprintf "q%d" b)
            ~weight:(1.0 +. float_of_int b)
            ~references:(Attr_set.of_mask (mask_of_bit b))
            ())
    in
    Workload.make table queries
  in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let bf = Vp_experiments.Common.brute_force disk in
  let budget = Budget.create ~deadline_seconds:1.0 () in
  let r = Partitioner.exec bf (Testutil.request ~budget ~cost:oracle w) in
  (match r.Partitioner.Response.status with
  | Partitioner.Timed_out _ -> ()
  | Partitioner.Complete ->
      Alcotest.fail "16-attribute brute force cannot finish in 1s");
  Alcotest.(check bool) "valid layout" true
    (Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning w);
  let row_cost =
    oracle (Partitioning.row (Table.attribute_count (Workload.table w)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.0f <= row %.0f" r.Partitioner.Response.cost row_cost)
    true
    (r.Partitioner.Response.cost <= row_cost)

(* {2 Sweep: checkpoint, resume, degradation} *)

let synthetic_experiment ?(fail = false) counter id =
  {
    Vp_experiments.Registry.id;
    paper_ref = "synthetic";
    description = "test cell " ^ id;
    run =
      (fun () ->
        incr counter;
        if fail then failwith ("cell " ^ id ^ " exploded");
        Printf.sprintf "report body for %s (run %d)" id 1);
  }

let test_sweep_resume () =
  let path = Filename.temp_file "vp_sweep" ".journal" in
  Sys.remove path;
  let c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
  let experiments =
    [
      synthetic_experiment c1 "synth1";
      synthetic_experiment ~fail:true c2 "synth2";
      synthetic_experiment c3 "synth3";
    ]
  in
  let first = Vp_experiments.Sweep.run ~jobs:2 ~journal_path:path experiments in
  Alcotest.(check int) "3 cells" 3 (List.length first);
  let statuses =
    List.map (fun c -> c.Vp_experiments.Sweep.status) first
  in
  (match statuses with
  | [ Done; Error _; Done ] -> ()
  | _ -> Alcotest.fail "expected [Done; Error; Done]");
  Alcotest.(check (list int)) "each cell ran once" [ 1; 1; 1 ] [ !c1; !c2; !c3 ];
  Alcotest.(check int) "one error cell" 1
    (List.length (Vp_experiments.Sweep.errors first));
  let report1 = Vp_experiments.Sweep.report first in
  (* Resume: completed cells replay from the journal without recomputation;
     the errored cell is retried (and fails again). *)
  let second = Vp_experiments.Sweep.run ~jobs:2 ~journal_path:path experiments in
  Alcotest.(check (list int))
    "resume recomputes only the failed cell" [ 1; 2; 1 ] [ !c1; !c2; !c3 ];
  List.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d resumed flag" i)
        (i <> 1) c.Vp_experiments.Sweep.resumed)
    second;
  Alcotest.(check string) "resumed report byte-identical" report1
    (Vp_experiments.Sweep.report second);
  Sys.remove path

let test_sweep_degradation () =
  (* A sweep over real experiment cells under a tiny step budget: every
     cell must come back (Done or Timeout, never lost), and the report
     must flag degraded cells. *)
  let experiments =
    List.filter
      (fun e ->
        List.mem e.Vp_experiments.Registry.id [ "table1"; "fig3" ])
      Vp_experiments.Registry.all
  in
  Alcotest.(check int) "catalogue has both cells" 2 (List.length experiments);
  (* These cells memoize their TPC-H runs (Common.tpch_runs); drop any
     results an earlier suite computed so the budget really bites, and
     drop the degraded ones afterwards so they cannot leak out. *)
  Vp_experiments.Common.reset_caches ();
  let cells =
    Fun.protect ~finally:Vp_experiments.Common.reset_caches (fun () ->
        Vp_experiments.Sweep.run ~jobs:1 ~budget_steps:3 experiments)
  in
  List.iter
    (fun c ->
      match c.Vp_experiments.Sweep.status with
      | Vp_experiments.Sweep.Error m -> Alcotest.failf "cell errored: %s" m
      | Done | Timeout -> ())
    cells;
  let timeouts =
    List.filter
      (fun c -> c.Vp_experiments.Sweep.status = Vp_experiments.Sweep.Timeout)
      cells
  in
  Alcotest.(check bool) "a 3-step budget times out" true (timeouts <> []);
  let report = Vp_experiments.Sweep.report cells in
  let contains needle hay =
    let h = String.length hay and n = String.length needle in
    let rec go k = k + n <= h && (String.sub hay k n = needle || go (k + 1)) in
    go 0
  in
  Alcotest.(check bool) "report flags timeouts" true
    (contains "[TIMEOUT]" report);
  (* Degraded cells still carry their (partial) report body. *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Vp_experiments.Sweep.id ^ " has output")
        true
        (String.length c.Vp_experiments.Sweep.output > 0))
    timeouts

(* --- CRC-32 first use from several domains ---

   The race only shows on the very first checksum of a process, so the
   check runs in a fresh copy of this binary: [crc32_race_sentinel] as
   the first argument makes it release four domains from a spin barrier
   straight into their first [Crc32.string] and exit with status 0 iff
   every one returned the standard check value. *)

let crc32_race_sentinel = "--vp-crc32-race"

let crc32_race_child () =
  let domains = 4 in
  let ready = Atomic.make 0 in
  let first_use () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    match Vp_robust.Crc32.string "123456789" with
    | c -> c = 0xCBF43926
    | exception e ->
        prerr_endline (Printexc.to_string e);
        false
  in
  let ds = List.init domains (fun _ -> Domain.spawn first_use) in
  exit (if List.for_all Domain.join ds then 0 else 1)

let maybe_run_crc32_race () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = crc32_race_sentinel then
    crc32_race_child ()

let test_crc32_first_use_from_domains () =
  for attempt = 1 to 10 do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; crc32_race_sentinel |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "attempt %d: concurrent first use failed" attempt
  done

let suite =
  [
    Alcotest.test_case "budget semantics" `Quick test_budget_semantics;
    Alcotest.test_case "budget ambient install" `Quick test_budget_ambient;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal recover truncation" `Quick
      test_journal_recover;
    Alcotest.test_case "fault decisions" `Quick test_fault_decide;
    Alcotest.test_case "crc32 first use from 4 domains" `Quick
      test_crc32_first_use_from_domains;
    Alcotest.test_case "fault plan from env" `Quick test_fault_from_env;
    Alcotest.test_case "pool under faults" `Quick test_pool_faults;
    Alcotest.test_case "cost oracle faults" `Quick test_cost_oracle_faults;
    Alcotest.test_case "brute force under deadline" `Quick
      test_brute_force_deadline;
    Alcotest.test_case "sweep journal resume" `Quick test_sweep_resume;
    Alcotest.test_case "sweep degradation" `Quick test_sweep_degradation;
  ]
