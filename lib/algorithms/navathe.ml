open Vp_core

let clustered_order workload =
  Bond_energy.order (Affinity.of_workload workload)

let segment_set order start len =
  let s = ref Attr_set.empty in
  for i = start to start + len - 1 do
    s := Attr_set.add order.(i) !s
  done;
  !s

(* Navathe's split objective for one cut of a segment, computed on the
   quadrants of the clustered affinity matrix: z = CT*CB - CTB^2 where CT
   (resp. CB) sums the pairwise affinities inside the top (resp. bottom)
   sub-matrix and CTB sums the affinities crossing the cut. A cut with
   CTB = 0 separates two access clusters cleanly (z >= 0); heavy crossing
   affinity drives z negative. *)
let z_value matrix ~top ~bottom =
  let pair_sum set_a set_b ~same =
    let acc = ref 0.0 in
    Attr_set.iter
      (fun i ->
        Attr_set.iter
          (fun j ->
            if (not same) || i < j then acc := !acc +. Affinity.get matrix i j)
          set_b)
      set_a;
    !acc
  in
  let ct = pair_sum top top ~same:true in
  let cb = pair_sum bottom bottom ~same:true in
  let ctb = pair_sum top bottom ~same:false in
  (ct *. cb) -. (ctb *. ctb)

let best_z_split workload _groups order start len =
  if len <= 1 then None
  else begin
    let matrix = Affinity.of_workload workload in
    let best = ref None in
    for cut = 1 to len - 1 do
      let top = segment_set order start cut in
      let bottom = segment_set order (start + cut) (len - cut) in
      let z = z_value matrix ~top ~bottom in
      match !best with
      | Some (_, bz) when bz >= z -> ()
      | _ -> best := Some (cut, z)
    done;
    !best
  end

(* Mean off-diagonal affinity — the reference level for what counts as a
   "strong" attribute bond in this workload. Offline Navathe averages over
   the co-accessed (positive) pairs only; O2P's online variant uses the
   cruder mean over all pairs, which is cheaper to maintain incrementally
   and yields the coarser fragments the paper observes for O2P. *)
let mean_affinity ~positive_only matrix =
  let n = Affinity.size matrix in
  let sum = ref 0.0 and count = ref 0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let a = Affinity.get matrix i j in
      sum := !sum +. a;
      if (not positive_only) || a > 0.0 then incr count
    done
  done;
  if !count = 0 then 0.0 else !sum /. float_of_int !count

(* A fragment is acceptable to Navathe's affinity reasoning when it is a
   strong affinity clique: every pair of its attributes is co-accessed at
   least as often as the reference mean. A segment containing a weaker
   pair is always split (at its best-z cut); a strong clique is split only
   if the cut itself is clean (z >= 0). *)
let is_affinity_clique ?(reference = `Mean_positive) matrix set =
  let threshold =
    match reference with
    | `Mean_positive -> mean_affinity ~positive_only:true matrix
    | `Mean_all -> mean_affinity ~positive_only:false matrix
    | `Any_positive -> epsilon_float
  in
  let attrs = Attr_set.to_list set in
  let rec go = function
    | [] -> true
    | i :: rest ->
        List.for_all (fun j -> Affinity.get matrix i j >= threshold) rest
        && go rest
  in
  go attrs

(* Classic Navathe never consults the cost oracle, so it has no natural
   best-so-far notion. The budgeted variant therefore switches to a
   breadth-first worklist that commits one split per tick and prices the
   full intermediate partitioning after each commit, keeping the cheapest
   state seen (the initial whole-table state — the row layout — is priced
   before any tick, so an incumbent always exists). The evaluation
   timeline is deterministic, so a larger budget sees a superset of
   states and can only do better. Unbudgeted runs take the original
   recursion untouched. *)
let budgeted_refine ~budget ~delta ~n ~matrix ~order workload oracle =
  let whole = Partitioning.of_groups ~n [ segment_set order 0 n ] in
  let best = ref whole in
  let best_cost = ref (Partitioner.Counted.evaluate ~delta oracle whole) in
  let splits = ref 0 in
  let finished = ref [] in
  let queue = Queue.create () in
  Queue.add (0, n) queue;
  (try
     while not (Queue.is_empty queue) do
       Vp_robust.Budget.tick budget;
       let start, len = Queue.pop queue in
       let segment = segment_set order start len in
       match best_z_split workload [] order start len with
       | Some (cut, z) when z >= 0.0 || not (is_affinity_clique matrix segment)
         ->
           incr splits;
           Partitioner.Counted.note_candidate oracle;
           Queue.add (start, cut) queue;
           Queue.add (start + cut, len - cut) queue;
           let groups =
             Queue.fold
               (fun acc (s, l) -> segment_set order s l :: acc)
               !finished queue
           in
           let candidate = Partitioning.of_groups ~n groups in
           let cost = Partitioner.Counted.evaluate ~delta oracle candidate in
           if cost < !best_cost then begin
             best := candidate;
             best_cost := cost
           end
       | Some _ | None -> finished := segment :: !finished
     done
   with Vp_robust.Budget.Exhausted -> ());
  (!best, !splits)

let algorithm =
  Partitioner.timed_run ~name:"Navathe" ~short_name:"Na"
    (fun ~budget ~delta workload oracle ->
      let n = Table.attribute_count (Workload.table workload) in
      let matrix = Affinity.of_workload workload in
      let order = Bond_energy.order matrix in
      if Vp_robust.Budget.is_limited budget then
        budgeted_refine ~budget ~delta ~n ~matrix ~order workload oracle
      else begin
        let splits = ref 0 in
        let rec refine start len acc =
          let segment = segment_set order start len in
          match best_z_split workload [] order start len with
          | Some (cut, z)
            when z >= 0.0 || not (is_affinity_clique matrix segment) ->
              incr splits;
              Partitioner.Counted.note_candidate oracle;
              let acc = refine start cut acc in
              refine (start + cut) (len - cut) acc
          | Some _ | None -> segment :: acc
        in
        let groups = refine 0 n [] in
        (Partitioning.of_groups ~n groups, !splits)
      end)
