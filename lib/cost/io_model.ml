open Vp_core

type query_breakdown = {
  seek_cost : float;
  scan_cost : float;
  seeks : int;
  blocks_read : int;
  bytes_read : float;
  bytes_needed : float;
  partitions_read : int;
}

let ceil_div a b = (a + b - 1) / b

(* Observability probes. Every probe site guards on [Switch.stats_on] —
   one Atomic.get — and records into the accounting pass only; the cost
   arithmetic below is untouched, so instrumented runs stay byte-identical
   (see DESIGN.md section 9). *)
let c_oracle_calls = Vp_observe.Stats.counter "cost.oracle_calls"

let c_query_costs = Vp_observe.Stats.counter "cost.query_costs"

let partition_blocks (disk : Disk.t) ~rows ~row_size =
  if rows = 0 then 0
  else
    let b = disk.block_size in
    let per_block = b / row_size in
    if per_block >= 1 then ceil_div rows per_block
    else ceil_div (rows * row_size) b

(* Buffer refills (one seek each) of streaming [blocks] blocks of a
   partition of row size [s] when the total row size sharing the buffer
   is [total_s]. Int-only [max]: the polymorphic one goes through
   [compare_val]. *)
let refills (disk : Disk.t) ~blocks ~row_size:s ~total_row_size:total_s =
  let buff_share = disk.buffer_size * s / total_s in
  let per_buff = buff_share / disk.block_size in
  ceil_div blocks (if per_buff >= 1 then per_buff else 1)

let scan_cost (disk : Disk.t) blocks =
  float_of_int blocks *. float_of_int disk.block_size /. disk.read_bandwidth

(* Seek + scan cost of reading one partition of row size [s] when the total
   referenced row size is [total_s] (governs the buffer share). *)
let partition_read_cost (disk : Disk.t) ~rows ~row_size:s ~total_row_size:total_s
    =
  let blocks = partition_blocks disk ~rows ~row_size:s in
  if blocks = 0 then (0.0, 0.0, 0, 0)
  else begin
    let refills = refills disk ~blocks ~row_size:s ~total_row_size:total_s in
    (disk.seek_time *. float_of_int refills, scan_cost disk blocks, refills, blocks)
  end

let query_breakdown disk table partitioning query =
  let refs = Query.references query in
  let referenced = Partitioning.referenced_groups partitioning refs in
  let rows = Table.row_count table in
  let total_s =
    List.fold_left (fun acc g -> acc + Table.subset_size table g) 0 referenced
  in
  let init =
    {
      seek_cost = 0.0;
      scan_cost = 0.0;
      seeks = 0;
      blocks_read = 0;
      bytes_read = 0.0;
      bytes_needed = float_of_int (rows * Table.subset_size table refs);
      partitions_read = List.length referenced;
    }
  in
  List.fold_left
    (fun acc g ->
      let s = Table.subset_size table g in
      let seek, scan, refills, blocks =
        partition_read_cost disk ~rows ~row_size:s ~total_row_size:total_s
      in
      {
        acc with
        seek_cost = acc.seek_cost +. seek;
        scan_cost = acc.scan_cost +. scan;
        seeks = acc.seeks + refills;
        blocks_read = acc.blocks_read + blocks;
        bytes_read = acc.bytes_read +. float_of_int (rows * s);
      })
    init referenced

(* The one per-query cost fold: seek + scan of concurrently reading one
   partition per row size, added left to right. Every costing entry
   point — schema widths or per-format stored widths, full re-costs or
   delta-session misses — goes through it, so they agree bit for bit. *)
let sized_cost disk ~rows sizes =
  let total_s = Array.fold_left ( + ) 0 sizes in
  let acc = ref 0.0 in
  for i = 0 to Array.length sizes - 1 do
    let seek, scan, _, _ =
      partition_read_cost disk ~rows ~row_size:sizes.(i) ~total_row_size:total_s
    in
    acc := !acc +. seek +. scan
  done;
  !acc

(* Cost of reading the given partitions (an array in canonical order).
   The query accounting runs only on the stats branch and touches no
   float the fold adds. *)
let query_cost_array disk table groups =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_query_costs;
  sized_cost disk ~rows:(Table.row_count table)
    (Array.map (Table.subset_size table) groups)

let query_cost_groups disk table referenced =
  query_cost_array disk table (Array.of_list referenced)

let query_cost_sized disk ~rows sizes = sized_cost disk ~rows (Array.of_list sizes)

let query_cost disk table partitioning query =
  query_cost_array disk table
    (Partitioning.referenced_group_array partitioning (Query.references query))

let workload_cost disk workload partitioning =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_oracle_calls;
  let table = Workload.table workload in
  Array.fold_left
    (fun acc q ->
      acc +. (Query.weight q *. query_cost disk table partitioning q))
    0.0
    (Workload.queries workload)

let oracle disk workload = workload_cost disk workload

let c_delta_evals = Vp_observe.Stats.counter "cost.delta_evals"

let c_merge_folds = Vp_observe.Stats.counter "cost.merge_folds"

(* Incremental cost-delta oracle (DESIGN.md section 12). A session sits
   at a base partitioning with one cached per-query cost array; moving to
   a neighbor re-costs only the queries whose referenced-partition set
   changes and then re-sums the weighted total over *all* queries in
   workload order — the same left-to-right fold [workload_cost] performs —
   so every returned cost is bit-identical to a full re-cost. *)
module Incremental = struct
  (* Referenced-group arrays (canonical order) as memo keys. Key arrays
     are never mutated once built. *)
  module Memo = Hashtbl.Make (struct
    type t = Attr_set.t array

    let equal a b =
      let k = Array.length a and i = ref 0 in
      while !i < k && !i < Array.length b && Attr_set.equal a.(!i) b.(!i) do
        incr i
      done;
      !i = k && k = Array.length b

    let hash a = Partitioning.hash_groups ~seed:(Array.length a) a
  end)

  type t = {
    disk : Disk.t;
    table : Table.t;
    rows : int;
    refs : Attr_set.t array;  (* per-query reference sets, workload order *)
    weights : float array;
    (* CSR-style flat map: queries referencing attribute [a] are
       [attr_qidx.(attr_off.(a)) .. attr_qidx.(attr_off.(a+1) - 1)].
       Built once per session from the workload. *)
    attr_off : int array;
    attr_qidx : int array;
    qgroups : Attr_set.t array array;  (* referenced groups under [base] *)
    qcost : float array;  (* unweighted query costs under [base] *)
    scratch : float array;  (* folded costs, valid where stamp.(i) = gen *)
    stamp : int array;
    memo : float Memo.t;  (* referenced groups -> unweighted query cost *)
    (* Per base group, indexed by its lowest attribute: the group itself
       ([gmask], empty at attributes that are no group's lowest), row
       size, blocks and scan seconds; slots [n] and [n + 1] of the last
       three hold a move's two new groups. [qtotal] is each query's
       referenced row size under [base]. All five describe [base] only
       while [sized]; moves refresh them. *)
    gmask : Attr_set.t array;
    gsize : int array;
    gblocks : int array;
    gscan : float array;
    qtotal : int array;
    mutable owner : int array;
        (* per attribute, its leaf block's lowest attribute; allocated by
           the first [cost_blocks], so other searches never pay for it *)
    mutable sized : bool;
    mutable gen : int;
    mutable base : Partitioning.t;
    mutable valid : bool;  (* false until the first (re)base costing *)
    mutable base_cost : float;
  }

  let create disk workload =
    let table = Workload.table workload in
    let queries = Workload.queries workload in
    let q = Array.length queries in
    let n = Table.attribute_count table in
    let refs = Array.map Query.references queries in
    let weights = Array.map Query.weight queries in
    let counts = Array.make (n + 1) 0 in
    Array.iter
      (fun r -> Attr_set.iter (fun a -> counts.(a) <- counts.(a) + 1) r)
      refs;
    let attr_off = Array.make (n + 1) 0 in
    for a = 0 to n - 1 do
      attr_off.(a + 1) <- attr_off.(a) + counts.(a)
    done;
    let attr_qidx = Array.make (max 1 attr_off.(n)) 0 in
    let fill = Array.copy attr_off in
    Array.iteri
      (fun i r ->
        Attr_set.iter
          (fun a ->
            attr_qidx.(fill.(a)) <- i;
            fill.(a) <- fill.(a) + 1)
          r)
      refs;
    {
      disk;
      table;
      rows = Table.row_count table;
      refs;
      weights;
      attr_off;
      attr_qidx;
      qgroups = Array.make q [||];
      qcost = Array.make q 0.0;
      scratch = Array.make q 0.0;
      stamp = Array.make q (-1);
      memo = Memo.create 64;
      gmask = Array.make n Attr_set.empty;
      gsize = Array.make (n + 2) 0;
      gblocks = Array.make (n + 2) 0;
      gscan = Array.make (n + 2) 0.0;
      qtotal = Array.make q 0;
      owner = [||];
      sized = false;
      gen = 0;
      base = Partitioning.row (max 1 n);
      valid = false;
      base_cost = 0.0;
    }

  (* Per-query cost of reading [groups], memoized on the referenced-group
     array itself, for rebases (moves fold straight from the base groups
     instead, see [cost_move]). The cost is a pure function of (disk,
     table, groups) and the first two are fixed for the session's
     lifetime, so a hit returns the bit-identical float the cost model
     produced the first time; only misses run the model (and increment
     cost.query_costs). Rebases re-pose the groups a search's earlier
     climbs already costed, and a service re-optimizing one workload
     re-poses whole climbs. *)
  let memo_query_cost t groups =
    match Memo.find_opt t.memo groups with
    | Some c -> c
    | None ->
        let c = query_cost_array t.disk t.table groups in
        Memo.add t.memo groups c;
        c

  (* The weighted total, re-summed over every query left to right exactly
     like [workload_cost]'s fold, reading folded costs where stamped. *)
  let sum_stamped t =
    let acc = ref 0.0 in
    for i = 0 to Array.length t.qcost - 1 do
      let c = if t.stamp.(i) = t.gen then t.scratch.(i) else t.qcost.(i) in
      acc := !acc +. (t.weights.(i) *. c)
    done;
    !acc

  let recost_all t p =
    for i = 0 to Array.length t.qcost - 1 do
      let groups = Partitioning.referenced_group_array p t.refs.(i) in
      t.qgroups.(i) <- groups;
      t.qcost.(i) <- memo_query_cost t groups
    done;
    t.gen <- t.gen + 1;
    (* gen bump: no stamps survive *)
    t.base <- p;
    t.sized <- false;
    t.base_cost <- sum_stamped t;
    t.valid <- true

  let ensure_valid t = if not t.valid then recost_all t t.base

  (* Stamps, and calls [f] once on, every query whose reference set
     meets [changed], walking the flat per-attribute index so unaffected
     queries are never visited. *)
  let iter_affected t changed f =
    t.gen <- t.gen + 1;
    Attr_set.iter
      (fun a ->
        for k = t.attr_off.(a) to t.attr_off.(a + 1) - 1 do
          let i = t.attr_qidx.(k) in
          if t.stamp.(i) <> t.gen then begin
            t.stamp.(i) <- t.gen;
            f i
          end
        done)
      changed

  let base t = t.base

  let base_cost t =
    ensure_valid t;
    t.base_cost

  let goto t p =
    if not t.valid then begin
      t.base <- p;
      recost_all t p
    end
    else begin
      if Vp_observe.Switch.stats_on () then
        Vp_observe.Stats.incr c_delta_evals;
      let changed = Partitioning.changed_attrs t.base p in
      if not (Attr_set.is_empty changed) then begin
        (* Rebase the affected queries in place. *)
        iter_affected t changed (fun i ->
            let groups = Partitioning.referenced_group_array p t.refs.(i) in
            t.qgroups.(i) <- groups;
            t.qcost.(i) <- memo_query_cost t groups);
        t.gen <- t.gen + 1;
        t.base <- p;
        t.sized <- false;
        t.base_cost <- sum_stamped t
      end
    end;
    t.base_cost

  let set_size t x s =
    let blocks = partition_blocks t.disk ~rows:t.rows ~row_size:s in
    t.gsize.(x) <- s;
    t.gblocks.(x) <- blocks;
    t.gscan.(x) <- scan_cost t.disk blocks

  (* Fills the size tables for [base]. Lazy, so rebases that no move
     follows never pay for it, and after [cost_blocks] has borrowed the
     tables the next move refills them. *)
  let refresh_sizes t =
    if not t.sized then begin
      Array.fill t.gmask 0 (Array.length t.gmask) Attr_set.empty;
      Partitioning.iter_groups
        (fun g ->
          let a = Attr_set.min_elt g in
          t.gmask.(a) <- g;
          set_size t a (Table.subset_size t.table g))
        t.base;
      for i = 0 to Array.length t.qgroups - 1 do
        t.qtotal.(i) <-
          Array.fold_left
            (fun acc g -> acc + t.gsize.(Attr_set.min_elt g))
            0 t.qgroups.(i)
      done;
      t.sized <- true
    end

  (* [Partitioning.mem_group t.base g] in O(1), once the tables are
     filled. *)
  let is_base_group t g =
    (not (Attr_set.is_empty g))
    &&
    let a = Attr_set.min_elt g in
    a < Array.length t.gmask && Attr_set.equal t.gmask.(a) g

  (* Query [i]'s folded cost, stored in its scratch slot: its base
     groups with [src] and [dst] (lowest attributes [asrc] and [adst])
     skipped and the new groups read where they sort — slot [x1] at
     lowest attribute [l1], then [x2] at [l2] ([max_int]: no second
     group); [total] is the query's referenced row size after the move.
     [next] is the lowest attribute of the next new group to read. Past
     the last base group, [a] is [max_int], so a pending new group is
     read last. Top-level and inlined into [cost_move]'s per-query
     closures: a closure of its own, or a call per query, cost merge
     pricing 1-3% in-process on the benchmark's wide table. *)
  (* Moving [sub] out of base group [src] into base group [dst] leaves two
     new groups: [dst ∪ sub], whose sizes go in slot [n], and the
     remainder [src \ sub] in slot [n + 1], absent for a merge
     ([sub = src]). Each affected query is priced with one fold over its
     base groups: [src] and [dst] are skipped and each new group the
     query references is read at the slot its lowest attribute sorts to,
     so the fold visits the moved-to partitioning's referenced row sizes
     in canonical order and adds exactly what [sized_cost] adds. A
     partition of 0 blocks adds (0.0, 0.0) there, which leaves the
     non-negative sum unchanged, so it is skipped here. The base does
     not move. *)
  let cost_move t sub src dst =
    ensure_valid t;
    refresh_sizes t;
    let merge = Attr_set.equal sub src in
    if
      (not (is_base_group t src && is_base_group t dst))
      || Attr_set.equal src dst
      || not (merge || ((not (Attr_set.is_empty sub)) && Attr_set.subset sub src))
    then
      (* Not a legal move: [merge_groups] or [split_group] raises its own
         exception. *)
      ignore
        (if merge then Partitioning.merge_groups t.base src dst
         else
           Partitioning.merge_groups
             (Partitioning.split_group t.base src sub)
             sub dst
          : Partitioning.t);
    let asrc = Attr_set.min_elt src and adst = Attr_set.min_elt dst in
    let ssrc = t.gsize.(asrc) and sdst = t.gsize.(adst) in
    let un = Array.length t.gsize - 2 and rx = Array.length t.gsize - 1 in
    let seek_time = t.disk.seek_time in
    (* Query [i]'s folded cost, stored in its scratch slot: its base
       groups with [src] and [dst] skipped and the new groups read where
       they sort — slot [x1] at lowest attribute [l1], then [x2] at [l2]
       ([max_int]: no second group); [total] is the query's referenced
       row size after the move. [next] is the lowest attribute of the
       next new group to read. Past the last base group, [a] is
       [max_int], so a pending new group is read last. Inlined into the
       per-query closures below, as is [kept_size]: a call per query
       cost merge pricing 1-4% in-process on the benchmark's wide
       table. *)
    let[@inline] fold_query i total l1 x1 l2 x2 =
      let gs = t.qgroups.(i) in
      let k = Array.length gs in
      let acc = ref 0.0 and j = ref 0 and next = ref l1 in
      while !j < k || !next <> max_int do
        let a = if !j < k then Attr_set.min_elt gs.(!j) else max_int in
        if a = asrc || a = adst then incr j
        else begin
          let x =
            if !next < a then
              if !next = l1 then begin
                next := l2;
                x1
              end
              else begin
                next := max_int;
                x2
              end
            else begin
              incr j;
              a
            end
          in
          let blocks = t.gblocks.(x) in
          if blocks <> 0 then
            acc :=
              !acc
              +. seek_time
                 *. float_of_int
                      (refills t.disk ~blocks ~row_size:t.gsize.(x)
                         ~total_row_size:total)
              +. t.gscan.(x)
        end
      done;
      t.scratch.(i) <- !acc
    in
    (* Query [i]'s referenced row size under the base less [src] and
       [dst]. *)
    let[@inline] kept_size i refs =
      t.qtotal.(i)
      - (if Attr_set.intersects refs src then ssrc else 0)
      - if Attr_set.intersects refs dst then sdst else 0
    in
    let folds = ref 0 in
    (* The new groups' sizes and lowest attributes are resolved here, once
       per call. A merge leaves one new group, which every affected query
       reads. A move of a proper subset leaves two: a query reads the
       union unless it meets only the remainder, and the remainder only
       if it meets it. *)
    let fold =
      if merge then begin
        let sun = ssrc + sdst in
        set_size t un sun;
        let lu = if asrc < adst then asrc else adst in
        fun i ->
          incr folds;
          fold_query i (kept_size i t.refs.(i) + sun) lu un max_int un
      end
      else begin
        let rem = Attr_set.diff src sub and moved_to = Attr_set.union dst sub in
        let srem = Table.subset_size t.table rem in
        let sun = sdst + ssrc - srem in
        set_size t un sun;
        set_size t rx srem;
        let asub = Attr_set.min_elt sub and lr = Attr_set.min_elt rem in
        let lu = if asub < adst then asub else adst in
        fun i ->
          incr folds;
          let refs = t.refs.(i) in
          let reads_rem = Attr_set.intersects refs rem in
          let reads_un = (not reads_rem) || Attr_set.intersects refs moved_to in
          let total =
            kept_size i refs
            + (if reads_rem then srem else 0)
            + if reads_un then sun else 0
          in
          (* The remainder comes first when the union is not read or
             sorts after it. *)
          let rem_first = reads_rem && ((not reads_un) || lr < lu) in
          let l2 =
            if not (reads_rem && reads_un) then max_int
            else if rem_first then lu
            else lr
          in
          if rem_first then fold_query i total lr rx l2 un
          else fold_query i total lu un l2 rx
      end
    in
    if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_delta_evals;
    (* Every query meeting [src] or [dst] is affected; the total is
       re-summed over all queries with the folded costs where stamped. *)
    iter_affected t (Attr_set.union src dst) fold;
    let c = sum_stamped t in
    t.gen <- t.gen + 1;
    (* invalidate the fold stamps *)
    if Vp_observe.Switch.stats_on () then
      Vp_observe.Stats.add c_merge_folds !folds;
    c

  let cost_merge t g1 g2 = cost_move t g1 g1 g2

  (* An enumeration leaf: the partitioning whose groups are the first
     [used] blocks, in any order. Each block's size, blocks and scan
     seconds go in the size tables at its lowest attribute, once per
     call, and [owner] maps every attribute to that slot. A query's
     blocks are then the slots its attributes map to, as a mask of
     lowest attributes, which lists them in canonical order; their terms
     are [sized_cost]'s, added in that order and skipping 0-block
     partitions as [cost_move]'s fold does, and the weighted total runs
     in workload order, so the float is [workload_cost]'s. The base and
     its per-query costs are not read or moved; the size tables stop
     describing the base. *)
  let cost_blocks t blocks used =
    let n = Array.length t.gmask in
    let cover = ref 0 and ok = ref (used >= 1 && used <= Array.length blocks) in
    if !ok then
      for b = 0 to used - 1 do
        let m = Attr_set.to_mask blocks.(b) in
        if m = 0 || m land !cover <> 0 then ok := false;
        cover := !cover lor m
      done;
    if not (!ok && !cover = (1 lsl n) - 1) then
      (* Not a partitioning: [of_groups] raises its own exception. *)
      ignore
        (Partitioning.of_groups ~n (Array.to_list (Array.sub blocks 0 used))
          : Partitioning.t);
    if Array.length t.owner <> n then t.owner <- Array.make n 0;
    t.sized <- false;
    for b = 0 to used - 1 do
      let m = ref (Attr_set.to_mask blocks.(b)) in
      let low = Attr_set.lowest_bit_index !m and s = ref 0 in
      while !m <> 0 do
        let a = Attr_set.lowest_bit_index !m in
        t.owner.(a) <- low;
        s := !s + Table.width t.table a;
        m := !m land (!m - 1)
      done;
      set_size t low !s
    done;
    let seek_time = t.disk.seek_time in
    let acc = ref 0.0 in
    for i = 0 to Array.length t.refs - 1 do
      let lows = ref 0 and r = ref (Attr_set.to_mask t.refs.(i)) in
      while !r <> 0 do
        lows := !lows lor (1 lsl t.owner.(Attr_set.lowest_bit_index !r));
        r := !r land (!r - 1)
      done;
      let total = ref 0 and l = ref !lows in
      while !l <> 0 do
        total := !total + t.gsize.(Attr_set.lowest_bit_index !l);
        l := !l land (!l - 1)
      done;
      let c = ref 0.0 and l = ref !lows in
      while !l <> 0 do
        let x = Attr_set.lowest_bit_index !l in
        let blocks = t.gblocks.(x) in
        if blocks <> 0 then
          c :=
            !c
            +. seek_time
               *. float_of_int
                    (refills t.disk ~blocks ~row_size:t.gsize.(x)
                       ~total_row_size:!total)
            +. t.gscan.(x);
        l := !l land (!l - 1)
      done;
      acc := !acc +. (t.weights.(i) *. !c)
    done;
    if Vp_observe.Switch.stats_on () then begin
      Vp_observe.Stats.incr c_delta_evals;
      Vp_observe.Stats.add c_query_costs (Array.length t.refs)
    end;
    !acc

  let session t =
    {
      Partitioner.Delta.base_cost = (fun () -> base_cost t);
      goto = (fun p -> ignore (goto t p : float));
      cost_merge = (fun g1 g2 -> cost_merge t g1 g2);
      cost_move = (fun sub src dst -> cost_move t sub src dst);
      cost_blocks = (fun blocks used -> cost_blocks t blocks used);
    }

  let factory disk workload () = session (create disk workload)
end

let request ?budget ?label disk workload =
  Partitioner.Request.make ?budget ?label
    ~delta:(Incremental.factory disk workload)
    ~cost:(oracle disk workload) workload

let pmv_cost disk workload =
  let table = Workload.table workload in
  let rows = Table.row_count table in
  Array.fold_left
    (fun acc q ->
      let s = Table.subset_size table (Query.references q) in
      let seek, scan, _, _ =
        partition_read_cost disk ~rows ~row_size:s ~total_row_size:s
      in
      acc +. (Query.weight q *. (seek +. scan)))
    0.0
    (Workload.queries workload)

let creation_time (disk : Disk.t) table partitioning =
  let rows = Table.row_count table in
  let row_s = Table.row_size table in
  (* Streams sharing the buffer: the row-layout read stream plus one write
     stream per partition. Buffer shares are proportional to row sizes, with
     the read stream counted at the full row size. *)
  let groups = Partitioning.groups partitioning in
  let total_s =
    row_s + List.fold_left (fun acc g -> acc + Table.subset_size table g) 0 groups
  in
  let read_seek, read_scan, _, _ =
    partition_read_cost disk ~rows ~row_size:row_s ~total_row_size:total_s
  in
  let write_cost =
    List.fold_left
      (fun acc g ->
        let s = Table.subset_size table g in
        let blocks = partition_blocks disk ~rows ~row_size:s in
        if blocks = 0 then acc
        else begin
          let refills = refills disk ~blocks ~row_size:s ~total_row_size:total_s in
          acc
          +. (disk.seek_time *. float_of_int refills)
          +. float_of_int blocks
             *. float_of_int disk.block_size
             /. disk.write_bandwidth
        end)
      0.0 groups
  in
  read_seek +. read_scan +. write_cost
