(* Differential and property tests for the incremental cost-delta oracle
   (Vp_cost.Io_model.Incremental). The contract under test is exactness:
   every cost a delta session returns — for rebases, merge peeks and
   peeks of split and move neighbours — must equal a from-scratch
   [Io_model.workload_cost] of the target partitioning TO THE LAST BIT,
   so all comparisons here are on [Int64.bits_of_float], never within
   an epsilon. *)

open Vp_core
module Inc = Vp_cost.Io_model.Incremental

let disk = Vp_cost.Disk.default

let full_cost w p = Vp_cost.Io_model.workload_cost disk w p

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  Alcotest.(check int64) msg (bits expected) (bits actual)

(* --- seeded-random moves --------------------------------------------- *)

type move =
  | Merge of Attr_set.t * Attr_set.t
  | Split of Attr_set.t * Attr_set.t  (* group, proper nonempty subset *)
  | Move of int * Attr_set.t  (* attribute, destination group *)

let describe = function
  | Merge (a, b) ->
      Printf.sprintf "merge %s %s" (Attr_set.to_string a)
        (Attr_set.to_string b)
  | Split (g, sub) ->
      Printf.sprintf "split %s out of %s" (Attr_set.to_string sub)
        (Attr_set.to_string g)
  | Move (a, dst) ->
      Printf.sprintf "move %d into %s" a (Attr_set.to_string dst)

(* A random legal move on [p], or None if [p] admits none (single
   singleton group). [rand k] must return a uniform int in [0, k). *)
let random_move rand p =
  let groups = Partitioning.group_array p in
  let k = Array.length groups in
  let merge () =
    if k < 2 then None
    else
      let i = rand k in
      let j = (i + 1 + rand (k - 1)) mod k in
      Some (Merge (groups.(i), groups.(j)))
  in
  let split () =
    let wide =
      Array.to_list groups
      |> List.filter (fun g -> Attr_set.cardinal g >= 2)
    in
    match wide with
    | [] -> None
    | _ ->
        let g = List.nth wide (rand (List.length wide)) in
        let attrs = Attr_set.to_list g in
        (* A uniformly random proper nonempty subset: keep each attribute
           with probability 1/2, then repair the two illegal outcomes. *)
        let sub = List.filter (fun _ -> rand 2 = 0) attrs in
        let sub =
          match sub with
          | [] -> [ List.nth attrs (rand (List.length attrs)) ]
          | l when List.length l = List.length attrs -> List.tl l
          | l -> l
        in
        Some (Split (g, Attr_set.of_list sub))
  in
  let move () =
    if k < 2 then None
    else
      let attr = rand (Partitioning.attribute_count p) in
      let src = Partitioning.group_of p attr in
      let dsts =
        Array.to_list groups
        |> List.filter (fun g -> not (Attr_set.equal g src))
      in
      Some (Move (attr, List.nth dsts (rand (List.length dsts))))
  in
  match rand 3 with
  | 0 -> ( match merge () with Some m -> Some m | None -> split ())
  | 1 -> ( match split () with Some m -> Some m | None -> move ())
  | _ -> ( match move () with Some m -> Some m | None -> split ())

(* The target partitioning of a move, built WITHOUT the session — for
   moves, by editing the group list directly rather than through a
   split-then-merge composition. *)
let apply_move p = function
  | Merge (a, b) -> Partitioning.merge_groups p a b
  | Split (g, sub) -> Partitioning.split_group p g sub
  | Move (attr, dst) ->
      let groups =
        Partitioning.groups p
        |> List.filter_map (fun g ->
               if Attr_set.equal g dst then
                 Some (Attr_set.add attr g)
               else
                 let g' = Attr_set.remove attr g in
                 if Attr_set.is_empty g' then None else Some g')
      in
      Partitioning.of_groups ~n:(Partitioning.attribute_count p) groups

(* A session peek of [m] from base [p]: merges through [cost_merge],
   split and move neighbours through [peek] of the neighbour built
   without the session. *)
let peek_cost t p m =
  match m with
  | Merge (a, b) -> Inc.cost_merge t a b
  | Split _ | Move _ -> Inc.peek t (apply_move p m)

let random_base rand w =
  Enumeration.random_partitioning rand
    (Table.attribute_count (Workload.table w))

(* --- the workload corpus --------------------------------------------- *)

let corpus () =
  let synth seed attributes queries =
    ( Printf.sprintf "synthetic-%Ld-%d" seed attributes,
      Vp_benchmarks.Synthetic.workload ~seed ~rows:50_000 ~attributes
        ~clusters:3 ~queries ~scatter:0.2 () )
  in
  List.map
    (fun w -> (Table.name (Workload.table w), w))
    (Vp_benchmarks.Tpch.workloads ~sf:1.0 @ Vp_benchmarks.Ssb.workloads ~sf:1.0)
  @ [ synth 3L 10 14; synth 17L 14 20; synth 23L 7 9 ]

(* --- differential suite ---------------------------------------------- *)

(* For every workload: [bases] seeded-random base partitionings, each
   rebased into a fresh session and probed with [moves_per_base] random
   moves; every peeked cost and delta must match the full re-cost of the
   independently constructed target, bit for bit. Runs thousands of
   cases across TPC-H, SSB and the synthetic generator. *)
let test_differential () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0x5eed; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      for base_no = 1 to 40 do
        let p0 = random_base rand w in
        let t = Inc.create disk w in
        check_bits
          (Printf.sprintf "%s base %d: goto = full re-cost" name base_no)
          (full_cost w p0) (Inc.goto t p0);
        for _ = 1 to 4 do
          match random_move rand p0 with
          | None -> ()
          | Some m ->
              let target = apply_move p0 m in
              let full = full_cost w target in
              let label =
                Printf.sprintf "%s base %d: %s" name base_no (describe m)
              in
              check_bits label full (peek_cost t p0 m);
              check_bits (label ^ " (delta)")
                (full -. full_cost w p0)
                (peek_cost t p0 m -. Inc.base_cost t);
              (* Peeks must not have moved the base. *)
              check_bits (label ^ " (base intact)") (full_cost w p0)
                (Inc.base_cost t)
        done
      done)
    (corpus ())

(* Rebasing mid-session (rather than into a fresh session) must recost
   only what changed yet return the same bits as a fresh full costing. *)
let test_goto_chain () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0xcafe; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      let t = Inc.create disk w in
      let p = ref (random_base rand w) in
      ignore (Inc.goto t !p : float);
      for step = 1 to 25 do
        (match random_move rand !p with
        | Some m -> p := apply_move !p m
        | None -> p := random_base rand w);
        check_bits
          (Printf.sprintf "%s step %d: goto = full re-cost" name step)
          (full_cost w !p) (Inc.goto t !p)
      done)
    (corpus ())

(* --- degenerate moves ------------------------------------------------ *)

let test_degenerate () =
  let w = Testutil.partsupp_workload in
  let n = Table.attribute_count (Workload.table w) in
  (* Moving the last attribute out of a singleton group empties the
     source: the result is exactly a merge of the two groups. *)
  let p =
    Partitioning.of_groups ~n
      [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2; 3; 4 ] ]
  in
  let t = Inc.create disk w in
  ignore (Inc.goto t p : float);
  let dst = Attr_set.of_list [ 1; 2; 3; 4 ] in
  check_bits "singleton-source move = merge"
    (full_cost w (Partitioning.merge_groups p (Attr_set.singleton 0) dst))
    (peek_cost t p (Move (0, dst)));
  (* Peeking the base itself — e.g. moving an attribute into its own
     group — is a no-op: the exact base cost, and a delta of exactly
     +0.0. *)
  check_bits "move into own group = base cost" (full_cost w p)
    (peek_cost t p (Move (2, dst)));
  check_bits "move into own group: delta = 0" 0.0
    (peek_cost t p (Move (2, dst)) -. Inc.base_cost t);
  (* Self-merge is illegal exactly as it is for Partitioning itself. *)
  Alcotest.check_raises "self-merge raises"
    (Invalid_argument "Partitioning.merge_groups: same group") (fun () ->
      ignore (Inc.cost_merge t dst dst : float));
  (* A split peeked on a two-attribute group leaves two singletons. *)
  let pair = Partitioning.of_groups ~n [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3; 4 ] ] in
  ignore (Inc.goto t pair : float);
  check_bits "pair split = full re-cost"
    (full_cost w
       (Partitioning.split_group pair (Attr_set.of_list [ 0; 1 ])
          (Attr_set.singleton 0)))
    (peek_cost t pair (Split (Attr_set.of_list [ 0; 1 ], Attr_set.singleton 0)))

(* --- move algebra properties ----------------------------------------- *)

(* A move followed by its inverse restores the base cost bits exactly. *)
let test_move_inverse () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0x1234; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      for case = 1 to 20 do
        let p0 = random_base rand w in
        match random_move rand p0 with
        | None -> ()
        | Some m ->
            let t = Inc.create disk w in
            let c0 = Inc.goto t p0 in
            let p1 = apply_move p0 m in
            ignore (Inc.goto t p1 : float);
            check_bits
              (Printf.sprintf "%s case %d: %s then back" name case
                 (describe m))
              c0 (Inc.goto t p0)
      done)
    (corpus ())

(* A random walk of rebases, each step's delta checked against the full
   re-cost difference, must end with the base cost equal to one full
   [workload_cost] of the final partitioning — exact equality, no
   epsilon, despite dozens of intermediate re-costings. *)
let test_random_walk () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0x9e37; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      let t = Inc.create disk w in
      let p = ref (random_base rand w) in
      let c = ref (Inc.goto t !p) in
      for step = 1 to 60 do
        match random_move rand !p with
        | None -> ()
        | Some m ->
            let next = apply_move !p m in
            let full_next = full_cost w next in
            let delta = peek_cost t !p m -. Inc.base_cost t in
            check_bits
              (Printf.sprintf "%s walk %d: delta = full difference" name step)
              (full_next -. !c) delta;
            p := next;
            c := Inc.goto t next
      done;
      check_bits
        (Printf.sprintf "%s: walk end = one full re-cost" name)
        (full_cost w !p) !c)
    (corpus ())

(* --- session closures & factory -------------------------------------- *)

let test_session_closures () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp" in
  let n = Table.attribute_count (Workload.table w) in
  let s = (Vp_cost.Io_model.Incremental.factory disk w) () in
  let p =
    Partitioning.of_groups ~n
      [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3 ]; Attr_set.singleton 4 ]
  in
  check_bits "session goto" (full_cost w p) (s.Partitioner.Delta.goto p);
  check_bits "session base_cost" (full_cost w p)
    (s.Partitioner.Delta.base_cost ());
  check_bits "session cost_merge"
    (full_cost w
       (Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ])
          (Attr_set.singleton 4)))
    (s.Partitioner.Delta.cost_merge (Attr_set.of_list [ 0; 1 ])
       (Attr_set.singleton 4));
  let moved =
    Partitioning.of_groups ~n
      [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2; 3 ]; Attr_set.singleton 4 ]
  in
  check_bits "session peek" (full_cost w moved) (s.Partitioner.Delta.peek moved)

(* --- qcheck: random workloads, random bases, random moves ------------ *)

(* The changed-attribute set as sessions computed it before the ordered
   walk: the union of [p]'s groups that are not groups of [base], found
   with one [mem_group] scan per group. The reference for
   [Partitioning.changed_attrs]. *)
let reference_changed_attrs base p =
  let changed = ref Attr_set.empty in
  Partitioning.iter_groups
    (fun g ->
      if not (Partitioning.mem_group base g) then
        changed := Attr_set.union !changed g)
    p;
  !changed

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | (_ : float) -> false

(* Tables of 8, 48 and 62 attributes, so group masks reach bit 61. From a
   random base, a short chain of random moves; at each step every merge
   peek must equal the full re-cost of [merge_groups] and leave the base
   alone, illegal merges must raise, the move's peek must equal the full
   re-cost of its target and leave the base alone, the ordered walk must
   find the reference change set, and [goto] must land on the full
   re-cost. *)
let prop_random_workloads =
  QCheck2.Test.make ~name:"delta oracle exact on random workloads"
    ~count:150
    QCheck2.Gen.(
      let* n = oneofl [ 8; 48; 62 ] in
      let* w = Testutil.gen_workload n 6 in
      let* p_seed = int in
      let* m_seed = small_nat in
      return (w, p_seed, m_seed))
    (fun (w, p_seed, m_seed) ->
      let state = Random.State.make [| p_seed; m_seed |] in
      let rand k = Random.State.int state k in
      let t = Inc.create disk w in
      let p = ref (random_base rand w) in
      let ok = ref (bits (Inc.goto t !p) = bits (full_cost w !p)) in
      for _ = 1 to 4 do
        let base = !p in
        let base_bits = bits (full_cost w base) in
        let groups = Partitioning.group_array base in
        let k = Array.length groups in
        for _ = 1 to min 6 (k * (k - 1) / 2) do
          let i = rand k in
          let j = (i + 1 + rand (k - 1)) mod k in
          let g1 = groups.(i) and g2 = groups.(j) in
          ok :=
            !ok
            && bits (Inc.cost_merge t g1 g2)
               = bits (full_cost w (Partitioning.merge_groups base g1 g2))
            && Partitioning.equal (Inc.base t) base
            && bits (Inc.base_cost t) = base_bits
            && raises_invalid (fun () -> Inc.cost_merge t g1 g1)
            && raises_invalid (fun () ->
                   Inc.cost_merge t (Attr_set.union g1 g2) g1)
        done;
        match random_move rand base with
        | None -> ()
        | Some m ->
            let target = apply_move base m in
            ok :=
              !ok
              && bits (peek_cost t base m) = bits (full_cost w target)
              && Partitioning.equal (Inc.base t) base
              && bits (Inc.base_cost t) = base_bits
              && Attr_set.equal
                   (Partitioning.changed_attrs base target)
                   (reference_changed_attrs base target)
              && bits (Inc.goto t target) = bits (full_cost w target);
            p := target
      done;
      !ok && bits (Inc.goto t !p) = bits (full_cost w !p))

(* --- the service pattern: repeated sweeps over one session ----------- *)

(* HillClimb over the TPC-H line-up three times — the service pattern,
   where the same workload is re-optimized again and again — once with
   full re-costing and once with ONE persistent delta session per
   workload, supplied to every round's request. The full path has
   nothing to persist and re-costs each round from scratch; the
   session's per-query memo makes repeat rounds nearly free. Every
   round's layout and cost bits must be identical, and the full path
   must re-cost at least 5x as many queries ([cost.query_costs]). *)
let test_repeated_sweep () =
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  let query_costs () =
    Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ())
      "cost.query_costs"
  in
  let sweep ~persistent =
    let prepared =
      List.map
        (fun w ->
          if persistent then
            let s = Inc.create disk w in
            (w, Some (fun () -> Inc.session s))
          else (w, None))
        workloads
    in
    let qc0 = query_costs () in
    let outcomes =
      List.concat_map
        (fun _round ->
          List.map
            (fun (w, delta) ->
              let r =
                Partitioner.exec Vp_algorithms.Hillclimb.algorithm
                  (Partitioner.Request.make ?delta
                     ~cost:(Vp_cost.Io_model.oracle disk w) w)
              in
              Printf.sprintf "%s %s %Lx"
                (Table.name (Workload.table w))
                (Partitioning.to_string r.Partitioner.Response.partitioning)
                (bits r.Partitioner.Response.cost))
            prepared)
        [ 1; 2; 3 ]
    in
    (outcomes, query_costs () - qc0)
  in
  Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () ->
      let full, full_qc = sweep ~persistent:false in
      let delta, delta_qc = sweep ~persistent:true in
      Alcotest.(check (list string)) "layouts and cost bits" full delta;
      Alcotest.(check bool)
        (Printf.sprintf "full %d >= 5 x delta %d query re-costs" full_qc
           delta_qc)
        true
        (delta_qc > 0 && float_of_int full_qc /. float_of_int delta_qc >= 5.0))

let suite =
  [
    Alcotest.test_case "differential: peeks = full re-cost" `Quick
      test_differential;
    Alcotest.test_case "differential: goto chain = full re-cost" `Quick
      test_goto_chain;
    Alcotest.test_case "degenerate moves" `Quick test_degenerate;
    Alcotest.test_case "move + inverse restores cost bits" `Quick
      test_move_inverse;
    Alcotest.test_case "random walk ends at one full re-cost" `Quick
      test_random_walk;
    Alcotest.test_case "session closures mirror the module" `Quick
      test_session_closures;
    Alcotest.test_case "repeated sweeps: one session, 5x fewer re-costs"
      `Quick test_repeated_sweep;
    Testutil.qtest prop_random_workloads;
  ]
