open Vp_core

(* Process-wide probes: per-run memo hits and misses, merged across runs
   and domains (Stats.snapshot / bench --json). *)
let c_hits = Vp_observe.Stats.counter "cache.hits"

let c_misses = Vp_observe.Stats.counter "cache.misses"

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
  memo_lookup memo oracle p (fun () -> Partitioner.Counted.cost oracle p)

let counted_via memo oracle ~compute p =
  memo_lookup memo oracle p (fun () -> Partitioner.Counted.probe oracle compute)
