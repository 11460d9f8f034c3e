open Vp_core

(* A segment is the contiguous run order.(start .. start+len-1) of the
   incrementally-clustered order. *)
type segment = { start : int; len : int }

let segment_set order { start; len } =
  let s = ref Attr_set.empty in
  for i = start to start + len - 1 do
    s := Attr_set.add order.(i) !s
  done;
  !s

let partitioning_of_segments ~n order segments =
  Partitioning.of_groups ~n (List.map (segment_set order) segments)

(* Greedy one-split-per-step analysis: each step commits the split with
   the globally best z while z is positive; like Navathe, the very first
   split is forced even when no cut has positive z (the least-bad cut).
   Because z is local to a segment, the best split of an untouched segment
   is remembered across steps (O2P's dynamic programming); only segments
   created by a commit are re-analysed. The I/O cost model is never
   consulted. *)
let greedy_z_split ?(budget = Vp_robust.Budget.unlimited)
    ?(on_commit = fun _ -> ()) workload order =
  let matrix = Affinity.of_workload workload in
  let cache : (segment, (int * float) option) Hashtbl.t = Hashtbl.create 32 in
  let analyse seg =
    match Hashtbl.find_opt cache seg with
    | Some r -> r
    | None ->
        let r = Navathe.best_z_split workload [] order seg.start seg.len in
        Hashtbl.add cache seg r;
        r
  in
  (* A segment is eligible for splitting under the same affinity rules as
     Navathe: a clean cut exists (z >= 0) or the segment is not an affinity
     clique. *)
  let eligible seg z =
    z >= 0.0
    || not
         (Navathe.is_affinity_clique ~reference:`Any_positive matrix
            (segment_set order seg))
  in
  let rec go segments steps =
    (* One tick per committed (or attempted) split step; on exhaustion the
       current segments are the answer — each step only ever refined them
       under positive z, and [on_commit] lets the budgeted caller price
       intermediate states. *)
    if not (Vp_robust.Budget.try_tick budget) then (segments, steps)
    else begin
      let best =
        List.fold_left
          (fun acc seg ->
            match analyse seg with
            | Some (cut, z) when eligible seg z -> (
                match acc with
                | Some (_, _, bz) when bz >= z -> acc
                | _ -> Some (seg, cut, z))
            | Some _ | None -> acc)
          None segments
      in
      match best with
      | Some (seg, cut, _z) ->
          let left = { start = seg.start; len = cut } in
          let right = { start = seg.start + cut; len = seg.len - cut } in
          let segments' =
            left :: right :: List.filter (fun s -> s <> seg) segments
          in
          on_commit segments';
          go segments' (steps + 1)
      | None -> (segments, steps)
    end
  in
  go [ { start = 0; len = Array.length order } ] 0

(* Incremental clustering state shared by the offline replay and the online
   simulation. *)
type stream_state = {
  matrix : Affinity.t;
  mutable order : int array;  (** Clustered order of the seen attributes. *)
  mutable seen : Attr_set.t;
}

let stream_create n = { matrix = Affinity.create n; order = [||]; seen = Attr_set.empty }

let stream_add state q =
  Affinity.add_query state.matrix q;
  Attr_set.iter
    (fun a ->
      if not (Attr_set.mem a state.seen) then begin
        state.seen <- Attr_set.add a state.seen;
        state.order <- Bond_energy.insert state.matrix state.order a
      end)
    (Query.references q)

(* Seen attributes in arrival-clustered order, unreferenced ones appended in
   position order so the result always covers 0..n-1. *)
let full_order state n =
  let rest =
    List.filter (fun a -> not (Attr_set.mem a state.seen)) (List.init n Fun.id)
  in
  Array.append state.order (Array.of_list rest)

let algorithm =
  Partitioner.timed_run ~name:"O2P" ~short_name:"O2P"
    (fun ~budget ~delta workload oracle ->
      let n = Table.attribute_count (Workload.table workload) in
      (* Replay the queries as an arrival stream to build the incremental
         clustered order, then run the greedy split analysis once on the
         final state. *)
      let state = stream_create n in
      Array.iter (fun q -> stream_add state q) (Workload.queries workload);
      let order = full_order state n in
      if Vp_robust.Budget.is_limited budget then begin
        (* Like Navathe, classic O2P never prices candidates, so the
           budgeted run keeps a cost incumbent over the deterministic
           sequence of committed states, seeded with the unsplit table
           (= the row layout) before any tick. *)
        let price = Partitioner.Counted.evaluate ~delta oracle in
        let initial = [ { start = 0; len = Array.length order } ] in
        let best = ref (partitioning_of_segments ~n order initial) in
        let best_cost = ref (price !best) in
        let on_commit segments =
          (* Pricing an intermediate state is a budget step like any other
             cost probe; [try_tick] (not [tick]) because a raise here
             would escape [greedy_z_split] uncaught. On a failed tick the
             commit goes unpriced and the split loop stops at its own
             next tick. *)
          if Vp_robust.Budget.try_tick budget then begin
            let candidate = partitioning_of_segments ~n order segments in
            let cost = price candidate in
            if cost < !best_cost then begin
              best := candidate;
              best_cost := cost
            end
          end
        in
        let _, steps = greedy_z_split ~budget ~on_commit workload order in
        (!best, steps)
      end
      else begin
        ignore oracle;
        let segments, steps = greedy_z_split workload order in
        (partitioning_of_segments ~n order segments, steps)
      end)

let online workload factory =
  let n = Table.attribute_count (Workload.table workload) in
  let state = stream_create n in
  let results = ref [] in
  Array.iteri
    (fun qi q ->
      stream_add state q;
      let order = full_order state n in
      let prefix = Workload.prefix workload (qi + 1) in
      let prefix_cost = factory prefix in
      let segments, _ = greedy_z_split prefix order in
      let partitioning = partitioning_of_segments ~n order segments in
      results := (qi + 1, partitioning, prefix_cost partitioning) :: !results)
    (Workload.queries workload);
  List.rev !results
