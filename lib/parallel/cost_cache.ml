open Vp_core

type t = {
  mutex : Mutex.t;
  table : (string, float) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int; entries : int }

let enabled = Atomic.make true

(* Global probes on top of the per-cache [stats] fields: the per-cache
   counts answer "how well did this cache do", the merged counters answer
   "what did the whole process do" (Stats.snapshot / bench --json). *)
let c_hits = Vp_observe.Stats.counter "cache.hits"

let c_misses = Vp_observe.Stats.counter "cache.misses"

let set_caching_enabled b = Atomic.set enabled b

let caching_enabled () = Atomic.get enabled

let create () =
  { mutex = Mutex.create (); table = Hashtbl.create 4096; hits = 0; misses = 0 }

let global = create ()

let stats t =
  Mutex.lock t.mutex;
  let s = { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table } in
  Mutex.unlock t.mutex;
  s

let hit_rate t =
  let s = stats t in
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  Mutex.unlock t.mutex

let context_fingerprint disk table =
  let buf = Buffer.create 256 in
  let d : Vp_cost.Disk.t = disk in
  Buffer.add_string buf
    (Printf.sprintf "disk:%d,%d,%h,%h,%h;" d.block_size d.buffer_size
       d.read_bandwidth d.write_bandwidth d.seek_time);
  Buffer.add_string buf
    (Printf.sprintf "table:%s,%d;" (Table.name table) (Table.row_count table));
  Array.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d;" (Attribute.name a) (Attribute.width a)))
    (Table.attributes table);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint disk workload =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (context_fingerprint disk (Workload.table workload));
  Array.iter
    (fun q ->
      Buffer.add_string buf
        (Printf.sprintf "q:%d,%h;" (Attr_set.to_mask (Query.references q))
           (Query.weight q)))
    (Workload.queries workload);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One lookup. [on_miss] runs OUTSIDE the lock (cost evaluation can be
   expensive); concurrent misses on the same key both evaluate and store
   the same value, which is benign. *)
let lookup t key on_miss =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mutex;
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_hits;
      `Hit v
  | None ->
      t.misses <- t.misses + 1;
      Mutex.unlock t.mutex;
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_misses;
      let v = on_miss () in
      Mutex.lock t.mutex;
      if not (Hashtbl.mem t.table key) then Hashtbl.add t.table key v;
      Mutex.unlock t.mutex;
      `Miss v

let memoize t ~fingerprint f =
  fun p ->
    if not (Atomic.get enabled) then f p
    else
      let key = fingerprint ^ "|" ^ Partitioning.to_string p in
      match lookup t key (fun () -> f p) with `Hit v | `Miss v -> v

(* The per-run search memo. One run prices candidates of one (workload,
   disk) instance on one domain, so the partitioning alone is the key
   and no lock is needed. *)
module Memo = Hashtbl.Make (Partitioning)

type memo = float Memo.t

let memo () = Memo.create 64

(* A hit only notes a candidate; a miss prices through [miss], which
   counts the cost call. *)
let memo_lookup memo oracle p miss =
  match Memo.find_opt memo p with
  | Some v ->
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_hits;
      Partitioner.Counted.note_candidate oracle;
      v
  | None ->
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_misses;
      let v = miss () in
      Memo.add memo p v;
      v

let counted memo oracle p =
  if not (Atomic.get enabled) then Partitioner.Counted.cost oracle p
  else
    memo_lookup memo oracle p (fun () -> Partitioner.Counted.cost oracle p)

let counted_via memo oracle ~compute p =
  if not (Atomic.get enabled) then Partitioner.Counted.probe oracle compute
  else
    memo_lookup memo oracle p (fun () ->
        Partitioner.Counted.probe oracle compute)

let oracle ?(cache = global) disk workload =
  let fp = fingerprint disk workload in
  memoize cache ~fingerprint:fp (Vp_cost.Io_model.oracle disk workload)

(* Query-grained memoization. A query's cost is fully determined by the
   set of partitions it reads (see [Io_model.query_cost_groups]), so the
   entries are keyed on (disk + table, query footprint, referenced
   partitions) — independent of the rest of the partitioning AND of the
   rest of the workload. That is where the redundancy actually lives: a
   merge step changes the referenced partitions of only the queries
   touching the two merged fragments, and workload-prefix sweeps re-pose
   the same (query, partitions) instances run after run. *)
let query_oracle ?(cache = global) disk workload =
  let table = Workload.table workload in
  let queries = Workload.queries workload in
  let ctx = context_fingerprint disk table in
  let prefixes =
    Array.map
      (fun q ->
        Printf.sprintf "%s|q%d|" ctx (Attr_set.to_mask (Query.references q)))
      queries
  in
  fun p ->
    if not (Atomic.get enabled) then
      Vp_cost.Io_model.workload_cost disk workload p
    else begin
      (* Same accumulation order and operations as
         [Io_model.workload_cost], so the result is bit-identical with the
         cache on, off, or pre-populated. *)
      let acc = ref 0.0 in
      Array.iteri
        (fun i q ->
          let referenced =
            Partitioning.referenced_groups p (Query.references q)
          in
          let key =
            prefixes.(i)
            ^ String.concat ","
                (List.map
                   (fun g -> string_of_int (Attr_set.to_mask g))
                   referenced)
          in
          let c =
            match
              lookup cache key (fun () ->
                  Vp_cost.Io_model.query_cost_groups disk table referenced)
            with
            | `Hit v | `Miss v -> v
          in
          acc := !acc +. (Query.weight q *. c))
        queries;
      !acc
    end
