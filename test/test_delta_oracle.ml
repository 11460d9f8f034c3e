(* Differential and property tests for the incremental cost-delta oracle
   (Vp_cost.Io_model.Incremental). The contract under test is exactness:
   every cost a delta session returns — for rebases, merges and moves —
   must equal a from-scratch
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

(* The session's price of [m] from base [p]: merges through
   [cost_merge], moves through [cost_move] of the attribute's group. A
   session prices no split without rebasing, so a split neighbour is
   priced by [goto] on a second session based at [p]. *)
let peek_cost w t p m =
  match m with
  | Merge (a, b) -> Inc.cost_merge t a b
  | Move (attr, dst) ->
      Inc.cost_move t (Attr_set.singleton attr) (Partitioning.group_of p attr)
        dst
  | Split _ ->
      let t2 = Inc.create disk w in
      ignore (Inc.goto t2 p : float);
      Inc.goto t2 (apply_move p m)

(* The partitioning [cost_move sub src dst] prices, built by the
   partitioning's own split and merge. *)
let moved p sub src dst =
  if Attr_set.equal sub src then Partitioning.merge_groups p src dst
  else Partitioning.merge_groups (Partitioning.split_group p src sub) sub dst

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
              check_bits label full (peek_cost w t p0 m);
              check_bits (label ^ " (delta)")
                (full -. full_cost w p0)
                (peek_cost w t p0 m -. Inc.base_cost t);
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
    (peek_cost w t p (Move (0, dst)));
  (* Moving an attribute into its own group is not a move: it raises
     what splitting it out and merging it back raises, and leaves the
     base alone. *)
  Alcotest.check_raises "move into own group raises"
    (Invalid_argument "Partitioning: {1,2,3,4} is not a group") (fun () ->
      ignore (peek_cost w t p (Move (2, dst)) : float));
  check_bits "move into own group: base intact" (full_cost w p)
    (Inc.base_cost t);
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
    (peek_cost w t pair (Split (Attr_set.of_list [ 0; 1 ], Attr_set.singleton 0)))

(* --- merge-fold edge cases -------------------------------------------- *)

(* A merge peek prices each affected query by folding over its base
   groups with the union spliced in. Pinned here on a six-attribute table
   whose attribute 3 is wider than an 8 KiB block: the union landing
   first, in the middle and last among a query's groups; queries that
   read only one of the two groups; a partition on the [per_block < 1]
   path; a table of 0 rows; merges after a chain of rebases, whose group
   sizes the session must re-read; and illegal merges. *)
let test_merge_fold_edges () =
  let s = Attr_set.of_list in
  let table rows =
    Table.make ~name:"edges" ~row_count:rows
      ~attributes:
        [
          Attribute.make "a" Attribute.Int32;
          Attribute.make "b" Attribute.Decimal;
          Attribute.make "c" (Attribute.Char 20);
          Attribute.make "wide" (Attribute.Varchar 9000);
          Attribute.make "e" Attribute.Int32;
          Attribute.make "f" Attribute.Date;
        ]
  in
  let query ?weight name refs =
    Query.make ?weight ~name ~references:(s refs) ()
  in
  let workload rows =
    Workload.make (table rows)
      [
        query "all" [ 0; 1; 2; 3; 4; 5 ];
        query ~weight:2.5 "low" [ 0; 1 ];
        query "high" [ 4; 5 ];
        query ~weight:0.5 "wide" [ 2; 3 ];
      ]
  in
  let column = Partitioning.column 6 in
  let paired = Partitioning.of_groups ~n:6 [ s [ 0; 1 ]; s [ 2; 3 ]; s [ 4 ]; s [ 5 ] ] in
  let cases =
    [
      ("union first", column, s [ 0 ], s [ 3 ]);
      ("union middle", column, s [ 2 ], s [ 4 ]);
      ("union last", column, s [ 4 ], s [ 5 ]);
      ("each query reads one group", column, s [ 1 ], s [ 5 ]);
      ("wider than a block", column, s [ 3 ], s [ 1 ]);
      ("two-attribute groups", paired, s [ 2; 3 ], s [ 0; 1 ]);
      ("wide group with a singleton", paired, s [ 5 ], s [ 2; 3 ]);
    ]
  in
  List.iter
    (fun rows ->
      let w = workload rows in
      List.iter
        (fun (name, p, g1, g2) ->
          let t = Inc.create disk w in
          ignore (Inc.goto t p : float);
          let expected = full_cost w (Partitioning.merge_groups p g1 g2) in
          let label = Printf.sprintf "%s, %d rows" name rows in
          check_bits label expected (Inc.cost_merge t g1 g2);
          check_bits (label ^ ", swapped") expected (Inc.cost_merge t g2 g1))
        cases;
      (* Each merge rebases the session, and the next merge peek must see
         the grown groups' sizes. *)
      let t = Inc.create disk w in
      ignore (Inc.goto t column : float);
      let p = ref column in
      List.iteri
        (fun step (g1, g2) ->
          check_bits
            (Printf.sprintf "merge %d after rebases, %d rows" step rows)
            (full_cost w (Partitioning.merge_groups !p g1 g2))
            (Inc.cost_merge t g1 g2);
          p := Partitioning.merge_groups !p g1 g2;
          ignore (Inc.goto t !p : float))
        [
          (s [ 0 ], s [ 1 ]);
          (s [ 0; 1 ], s [ 3 ]);
          (s [ 4 ], s [ 5 ]);
          (s [ 2 ], s [ 4; 5 ]);
          (s [ 0; 1; 3 ], s [ 2; 4; 5 ]);
        ];
      (* Illegal merges raise exactly what [merge_groups] raises. *)
      ignore (Inc.goto t paired : float);
      List.iter
        (fun (g1, g2) ->
          match Partitioning.merge_groups paired g1 g2 with
          | (_ : Partitioning.t) -> Alcotest.fail "merge_groups accepted it"
          | exception e ->
              Alcotest.check_raises
                (Printf.sprintf "illegal merge %s %s raises"
                   (Attr_set.to_string g1) (Attr_set.to_string g2))
                e
                (fun () -> ignore (Inc.cost_merge t g1 g2 : float)))
        [ (s [ 4 ], s [ 4 ]); (s [ 0 ], s [ 4 ]); (s [ 4 ], s [ 2; 3; 5 ]) ])
    [ 50_000; 0 ]

(* --- move-fold edge cases ---------------------------------------------- *)

(* A move prices each affected query by folding over its base groups with
   up to two new groups spliced in: [dst ∪ sub] and the remainder
   [src \ sub]. Pinned on the six-attribute table above (attribute 3 is
   wider than a block), with queries that read only the moved subset,
   only the remainder or only the destination: the remainder's slot
   moving when [sub] holds [src]'s lowest attribute; [sub]'s lowest
   attribute sorting before [dst]'s; either new group first; every move
   from five bases; 0 rows; moves after a chain of rebases; and illegal
   arguments, including groups of an earlier base. *)
let test_move_fold_edges () =
  let s = Attr_set.of_list in
  let table rows =
    Table.make ~name:"edges" ~row_count:rows
      ~attributes:
        [
          Attribute.make "a" Attribute.Int32;
          Attribute.make "b" Attribute.Decimal;
          Attribute.make "c" (Attribute.Char 20);
          Attribute.make "wide" (Attribute.Varchar 9000);
          Attribute.make "e" Attribute.Int32;
          Attribute.make "f" Attribute.Date;
        ]
  in
  let workload rows =
    Workload.make (table rows)
      (List.map
         (fun (name, weight, refs) ->
           Query.make ~weight ~name ~references:(s refs) ())
         [
           ("all", 1.0, [ 0; 1; 2; 3; 4; 5 ]);
           ("low", 2.5, [ 0; 1 ]);
           ("high", 1.0, [ 4; 5 ]);
           ("wide", 0.5, [ 2; 3 ]);
           ("only a", 0.75, [ 0 ]);
           ("only b", 1.25, [ 1 ]);
           ("only c", 3.0, [ 2 ]);
           ("only wide", 0.3, [ 3 ]);
           ("only e", 1.5, [ 4 ]);
           ("b and f", 2.0, [ 1; 5 ]);
         ])
  in
  let paired =
    Partitioning.of_groups ~n:6 [ s [ 0; 1 ]; s [ 2; 3 ]; s [ 4 ]; s [ 5 ] ]
  in
  let triple = Partitioning.of_groups ~n:6 [ s [ 0; 1; 2 ]; s [ 3; 4 ]; s [ 5 ] ] in
  (* A group ahead of both new groups, so that reading them in the
     wrong order can change the rounding of the sum. *)
  let led =
    Partitioning.of_groups ~n:6 [ s [ 0 ]; s [ 1; 2 ]; s [ 3 ]; s [ 4; 5 ] ]
  in
  (* (name, base, sub, src, dst) *)
  let cases =
    [
      ("sub holds src's lowest", paired, s [ 0 ], s [ 0; 1 ], s [ 4 ]);
      ("remainder first", paired, s [ 1 ], s [ 0; 1 ], s [ 5 ]);
      ("sub sorts before dst", paired, s [ 2 ], s [ 2; 3 ], s [ 4 ]);
      ("union first", paired, s [ 3 ], s [ 2; 3 ], s [ 0; 1 ]);
      ("wider than a block moves", paired, s [ 3 ], s [ 2; 3 ], s [ 5 ]);
      ("wider than a block receives", triple, s [ 1 ], s [ 0; 1; 2 ], s [ 3; 4 ]);
      ("two-attribute sub", triple, s [ 0; 2 ], s [ 0; 1; 2 ], s [ 5 ]);
      ("two-attribute sub, remainder first", triple, s [ 1; 2 ], s [ 0; 1; 2 ], s [ 5 ]);
      ("sub = src is the merge", triple, s [ 3; 4 ], s [ 3; 4 ], s [ 0; 1; 2 ]);
      ("from a singleton", paired, s [ 5 ], s [ 5 ], s [ 2; 3 ]);
    ]
  in
  List.iter
    (fun rows ->
      let w = workload rows in
      List.iter
        (fun (name, p, sub, src, dst) ->
          let t = Inc.create disk w in
          ignore (Inc.goto t p : float);
          let label = Printf.sprintf "%s, %d rows" name rows in
          check_bits label
            (full_cost w (moved p sub src dst))
            (Inc.cost_move t sub src dst);
          check_bits (label ^ ", base intact") (full_cost w p) (Inc.base_cost t))
        cases;
      (* Every move of every non-empty subset of one group into another,
         from each base above. *)
      List.iter
        (fun (bname, p) ->
          let t = Inc.create disk w in
          ignore (Inc.goto t p : float);
          let groups = Partitioning.groups p in
          List.iter
            (fun src ->
              List.iter
                (fun sub ->
                  List.iter
                    (fun dst ->
                      if (not (Attr_set.is_empty sub)) && not (Attr_set.equal src dst)
                      then
                        check_bits
                          (Printf.sprintf "%s: move %s of %s into %s, %d rows"
                             bname (Attr_set.to_string sub)
                             (Attr_set.to_string src) (Attr_set.to_string dst)
                             rows)
                          (full_cost w (moved p sub src dst))
                          (Inc.cost_move t sub src dst))
                    groups)
                (Attr_set.subsets src))
            groups)
        [
          ("column", Partitioning.column 6);
          ("paired", paired);
          ("triple", triple);
          ("led", led);
          ("row", Partitioning.row 6);
        ];
      (* Each move rebases the session, and the next move must see the
         changed groups' sizes. *)
      let t = Inc.create disk w in
      let p = ref (Partitioning.column 6) in
      ignore (Inc.goto t !p : float);
      List.iteri
        (fun step (sub, src, dst) ->
          check_bits
            (Printf.sprintf "move %d after rebases, %d rows" step rows)
            (full_cost w (moved !p sub src dst))
            (Inc.cost_move t sub src dst);
          p := moved !p sub src dst;
          ignore (Inc.goto t !p : float))
        [
          (s [ 0 ], s [ 0 ], s [ 1 ]);
          (s [ 3 ], s [ 3 ], s [ 0; 1 ]);
          (s [ 0 ], s [ 0; 1; 3 ], s [ 5 ]);
          (s [ 4 ], s [ 4 ], s [ 1; 3 ]);
          (s [ 1; 4 ], s [ 1; 3; 4 ], s [ 2 ]);
          (s [ 3 ], s [ 3 ], s [ 1; 2; 4 ]);
        ];
      (* Illegal arguments raise exactly what building the moved-to
         partitioning raises. The session last priced a move from a base
         with groups {1,2,4} and {3}, which [paired] does not have. *)
      ignore (Inc.goto t paired : float);
      List.iter
        (fun (sub, src, dst) ->
          match moved paired sub src dst with
          | (_ : Partitioning.t) -> Alcotest.fail "the partitioning accepted it"
          | exception e ->
              Alcotest.check_raises
                (Printf.sprintf "illegal move %s %s %s raises"
                   (Attr_set.to_string sub) (Attr_set.to_string src)
                   (Attr_set.to_string dst))
                e
                (fun () -> ignore (Inc.cost_move t sub src dst : float)))
        [
          (s [], s [ 0; 1 ], s [ 4 ]);
          (s [ 2 ], s [ 0; 1 ], s [ 4 ]);
          (s [ 1; 2 ], s [ 0; 1 ], s [ 4 ]);
          (s [ 0 ], s [ 0 ], s [ 4 ]);
          (s [ 4 ], s [ 4 ], s [ 4 ]);
          (s [ 0 ], s [ 0; 1 ], s [ 0; 1 ]);
          (s [ 0 ], s [ 0; 1 ], s [ 2 ]);
          (s [ 5 ], s [ 5 ], s [ 4; 5 ]);
          (s [ 3 ], s [ 3 ], s [ 5 ]);
          (s [ 1 ], s [ 1; 2; 4 ], s [ 5 ]);
        ];
      check_bits
        (Printf.sprintf "illegal moves leave the base, %d rows" rows)
        (full_cost w paired) (Inc.base_cost t))
    [ 50_000; 0 ]

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
            let delta = peek_cost w t !p m -. Inc.base_cost t in
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

(* --- enumeration leaves ---------------------------------------------- *)

(* [cost_blocks] prices an exact search's leaf from its blocks. Every
   leaf of a full enumeration of a seven-attribute table (attribute 3 is
   wider than a block) must cost the full re-cost of [of_groups] of the
   same blocks, bit for bit: at 50,000 and 0 rows; with the atoms
   enumerated in index order and in reverse, so blocks arrive out of
   canonical order, and with the block array reversed too; with stale
   blocks past [used]; for queries that read one block, every block, and
   a workload with no query, which reads none. Leaves leave the base
   alone, a merge peek after them still sees the base's groups, and
   arrays that are not a partitioning raise what [of_groups] raises. *)
let test_leaf_pricing () =
  let s = Attr_set.of_list in
  let n = 7 in
  let table rows =
    Table.make ~name:"leaves" ~row_count:rows
      ~attributes:
        [
          Attribute.make "a" Attribute.Int32;
          Attribute.make "b" Attribute.Decimal;
          Attribute.make "c" (Attribute.Char 20);
          Attribute.make "wide" (Attribute.Varchar 9000);
          Attribute.make "e" Attribute.Int32;
          Attribute.make "f" Attribute.Date;
          Attribute.make "g" (Attribute.Char 3);
        ]
  in
  let query ?weight name refs =
    Query.make ?weight ~name ~references:(s refs) ()
  in
  let queries =
    [
      query "all" [ 0; 1; 2; 3; 4; 5; 6 ];
      query ~weight:2.5 "one" [ 4 ];
      query ~weight:0.5 "wide" [ 2; 3 ];
      query ~weight:1.75 "spread" [ 0; 5; 6 ];
    ]
  in
  let base =
    Partitioning.of_groups ~n [ s [ 0; 1 ]; s [ 2; 3 ]; s [ 4; 5; 6 ] ]
  in
  let first used blocks = Array.to_list (Array.sub blocks 0 used) in
  List.iter
    (fun (rows, qs) ->
      let w = Workload.make (table rows) qs in
      let t = Inc.create disk w in
      let base_bits = bits (Inc.goto t base) in
      List.iter
        (fun (order, atom) ->
          let leaves = ref 0 in
          Enumeration.iter_rgs n (fun rgs ->
              incr leaves;
              let used = 1 + Array.fold_left max 0 rgs in
              (* Stale blocks past [used] must be ignored. *)
              let blocks = Array.make (n + 1) (Attr_set.full n) in
              Array.fill blocks 0 used Attr_set.empty;
              Array.iteri
                (fun i b -> blocks.(b) <- Attr_set.add (atom i) blocks.(b))
                rgs;
              let expected =
                full_cost w (Partitioning.of_groups ~n (first used blocks))
              in
              let label =
                Printf.sprintf "%d rows, %d queries, %s, leaf %d" rows
                  (List.length qs) order !leaves
              in
              check_bits label expected (Inc.cost_blocks t blocks used);
              let reversed = Array.of_list (List.rev (first used blocks)) in
              check_bits (label ^ ", blocks reversed") expected
                (Inc.cost_blocks t reversed used));
          Alcotest.(check int) "Bell(7) leaves" 877 !leaves)
        [
          ("atoms in index order", Fun.id);
          ("atoms reversed", fun i -> n - 1 - i);
        ];
      Alcotest.(check bool)
        "base unchanged" true
        (Partitioning.equal (Inc.base t) base);
      Alcotest.(check int64)
        "base cost unchanged" base_bits
        (bits (Inc.base_cost t));
      let g1 = s [ 0; 1 ] and g2 = s [ 4; 5; 6 ] in
      check_bits "merge peek after leaves"
        (full_cost w (Partitioning.merge_groups base g1 g2))
        (Inc.cost_merge t g1 g2);
      List.iter
        (fun (name, blocks, used) ->
          match Partitioning.of_groups ~n (first used blocks) with
          | (_ : Partitioning.t) ->
              Alcotest.fail (name ^ ": of_groups accepted it")
          | exception e ->
              Alcotest.check_raises name e (fun () ->
                  ignore (Inc.cost_blocks t blocks used : float)))
        [
          ("overlapping blocks", [| s [ 0; 1; 2; 3 ]; s [ 3; 4; 5; 6 ] |], 2);
          ("missing attribute", [| s [ 0; 1; 2 ]; s [ 4; 5; 6 ] |], 2);
          ("empty block", [| s [ 0; 1; 2; 3; 4; 5; 6 ]; Attr_set.empty |], 2);
          ("no block", [| s [ 0; 1; 2; 3; 4; 5; 6 ] |], 0);
        ])
    [ (50_000, queries); (0, queries); (50_000, []) ]

(* --- session closures & factory -------------------------------------- *)

(* Both sessions, the incremental one and the reference, answer every
   operation with the full re-cost's bits; the reference calls its
   oracle once per answer and never on a rebase. *)
let test_session_closures () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp" in
  let n = Table.attribute_count (Workload.table w) in
  let calls = ref 0 in
  let counted p =
    incr calls;
    full_cost w p
  in
  let p =
    Partitioning.of_groups ~n
      [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3 ]; Attr_set.singleton 4 ]
  in
  let target =
    Partitioning.of_groups ~n
      [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2; 3 ]; Attr_set.singleton 4 ]
  in
  List.iter
    (fun (name, factory, oracle_calls) ->
      let s = factory () in
      let check what expected answer =
        let before = !calls in
        check_bits (name ^ " " ^ what) expected (answer ());
        Alcotest.(check int)
          (name ^ " " ^ what ^ " oracle calls")
          oracle_calls (!calls - before)
      in
      let before = !calls in
      s.Partitioner.Delta.goto p;
      Alcotest.(check int) (name ^ " goto oracle calls") 0 (!calls - before);
      check "base_cost" (full_cost w p) s.Partitioner.Delta.base_cost;
      check "cost_merge"
        (full_cost w
           (Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ])
              (Attr_set.singleton 4)))
        (fun () ->
          s.Partitioner.Delta.cost_merge (Attr_set.of_list [ 0; 1 ])
            (Attr_set.singleton 4));
      check "cost_move" (full_cost w target) (fun () ->
          s.Partitioner.Delta.cost_move (Attr_set.singleton 1)
            (Attr_set.of_list [ 0; 1 ])
            (Attr_set.of_list [ 2; 3 ]));
      check "cost_move of a whole group"
        (full_cost w
           (Partitioning.merge_groups p (Attr_set.of_list [ 2; 3 ])
              (Attr_set.singleton 4)))
        (fun () ->
          s.Partitioner.Delta.cost_move (Attr_set.of_list [ 2; 3 ])
            (Attr_set.of_list [ 2; 3 ])
            (Attr_set.singleton 4));
      check "cost_blocks" (full_cost w target) (fun () ->
          s.Partitioner.Delta.cost_blocks
            (Partitioning.group_array target |> Array.to_list |> List.rev
           |> Array.of_list)
            3))
    [
      ("incremental", Vp_cost.Io_model.Incremental.factory disk w, 0);
      ("reference", Partitioner.Delta.full ~n counted, 1);
    ]

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

(* The groups of [p] in a random order. *)
let shuffled rand p =
  let a = Partitioning.group_array p in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | (_ : float) -> false

(* Tables of 8, 48 and 62 attributes, so group masks reach bit 61. From a
   random base, a short chain of random moves; at each step every merge,
   and every move of a random non-empty subset of one group into
   another, must equal the full re-cost of the partitioning built by
   [split_group] and [merge_groups] and leave the base alone, illegal
   merges and moves must raise, each moved-to partitioning priced as an
   enumeration leaf from its groups in a random order must equal its
   full re-cost (and the merge peek after it stay exact), the chain's
   move must equal the full re-cost of its target and leave the base
   alone, the ordered walk must
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
          let sub =
            match Attr_set.filter (fun _ -> rand 2 = 0) g1 with
            | sub when Attr_set.is_empty sub -> g1
            | sub -> sub
          in
          let leaf = moved base sub g1 g2 in
          ok :=
            !ok
            && bits
                 (Inc.cost_blocks t (shuffled rand leaf)
                    (Partitioning.group_count leaf))
               = bits (full_cost w leaf)
            && bits (Inc.cost_merge t g1 g2)
               = bits (full_cost w (Partitioning.merge_groups base g1 g2))
            && Partitioning.equal (Inc.base t) base
            && bits (Inc.base_cost t) = base_bits
            && raises_invalid (fun () -> Inc.cost_merge t g1 g1)
            && raises_invalid (fun () ->
                   Inc.cost_merge t (Attr_set.union g1 g2) g1)
            && bits (Inc.cost_move t sub g1 g2)
               = bits (full_cost w (moved base sub g1 g2))
            && Partitioning.equal (Inc.base t) base
            && bits (Inc.base_cost t) = base_bits
            && raises_invalid (fun () -> Inc.cost_move t sub g1 g1)
            && raises_invalid (fun () -> Inc.cost_move t g2 g1 g2)
        done;
        match random_move rand base with
        | None -> ()
        | Some m ->
            let target = apply_move base m in
            ok :=
              !ok
              && bits (peek_cost w t base m) = bits (full_cost w target)
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
                  (Testutil.request ?delta
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
    Alcotest.test_case "merge fold edge cases" `Quick test_merge_fold_edges;
    Alcotest.test_case "move fold edge cases" `Quick test_move_fold_edges;
    Alcotest.test_case "move + inverse restores cost bits" `Quick
      test_move_inverse;
    Alcotest.test_case "random walk ends at one full re-cost" `Quick
      test_random_walk;
    Alcotest.test_case "leaf pricing: every leaf = full re-cost" `Quick
      test_leaf_pricing;
    Alcotest.test_case "session closures mirror the module" `Quick
      test_session_closures;
    Alcotest.test_case "repeated sweeps: one session, 5x fewer re-costs"
      `Quick test_repeated_sweep;
    Testutil.qtest prop_random_workloads;
  ]
