type cost_fn = Partitioning.t -> float

type stats = {
  cost_calls : int;
  candidates : int;
  iterations : int;
  elapsed_seconds : float;
}

type status = Complete | Timed_out of { steps : int; elapsed_seconds : float }

module Delta = struct
  type session = {
    base_cost : unit -> float;
    goto : Partitioning.t -> unit;
    cost_merge : Attr_set.t -> Attr_set.t -> float;
    cost_move : Attr_set.t -> Attr_set.t -> Attr_set.t -> float;
    cost_blocks : Attr_set.t array -> int -> float;
  }

  type factory = unit -> session

  (* Every answer builds the candidate and prices it with one call of
     [cost]; a rebase only records the base. *)
  let full ~n cost () =
    let base = ref (Partitioning.row n) in
    {
      base_cost = (fun () -> cost !base);
      goto = (fun p -> base := p);
      cost_merge =
        (fun g1 g2 -> cost (Partitioning.merge_groups !base g1 g2));
      cost_move =
        (fun sub src dst ->
          let from =
            if Attr_set.equal sub src then !base
            else Partitioning.split_group !base src sub
          in
          cost (Partitioning.merge_groups from sub dst));
      cost_blocks =
        (fun blocks used ->
          cost
            (Partitioning.of_groups ~n
               (Array.to_list (Array.sub blocks 0 used))));
    }
end

module Request = struct
  type t = {
    workload : Workload.t;
    cost : cost_fn;
    budget : Vp_robust.Budget.t option;
    label : string option;
    delta : Delta.factory;
    cancel : bool Atomic.t option;
  }

  let make ?budget ?cancel ?label ~delta ~cost workload =
    { workload; cost; budget; label; delta; cancel }

  let workload r = r.workload

  let cancel r = r.cancel

  let effective_budget r =
    let base =
      match r.budget with Some b -> b | None -> Vp_robust.Budget.current ()
    in
    match r.cancel with
    | None -> base
    | Some c -> Vp_robust.Budget.with_cancel base c
end

module Response = struct
  type entrant = {
    entrant : string;
    entrant_short : string;
    entrant_cost : float;
    entrant_status : status;
    entrant_stats : stats;
    winner : bool;
  }

  type provenance = {
    algorithm : string;
    short_name : string;
    label : string option;
    entrants : entrant list;
  }

  (* Declared [private] in the interface, so outside this library every
     construction goes through {!make}. *)
  type t = {
    partitioning : Partitioning.t;
    cost : float;
    stats : stats;
    status : status;
    provenance : provenance;
  }

  (* The one and only constructor: [t] is private, so every producer —
     the [timed_run] builder and the portfolio — goes through here and
     cannot leave the provenance half-initialized. *)
  let make ~partitioning ~cost ~stats ~status ~algorithm ~short_name ?label
      ?(entrants = []) () =
    {
      partitioning;
      cost;
      stats;
      status;
      provenance = { algorithm; short_name; label; entrants };
    }
end

type t = { name : string; short_name : string; exec : Request.t -> Response.t }

let exec t request = t.exec request

module Counted = struct
  type oracle = { mutable calls : int; mutable candidates : int }

  let make () = { calls = 0; candidates = 0 }

  let probe o thunk =
    (let fault = Vp_robust.Fault.current () in
     if Vp_robust.Fault.enabled fault then
       Vp_robust.Fault.apply fault ~site:"cost" ~index:o.calls);
    o.calls <- o.calls + 1;
    o.candidates <- o.candidates + 1;
    thunk ()

  (* One counted cost call on a built partitioning, which leaves the
     session based there. *)
  let evaluate ~delta o p =
    probe o (fun () ->
        delta.Delta.goto p;
        delta.Delta.base_cost ())

  let note_candidate o = o.candidates <- o.candidates + 1

  let calls o = o.calls

  let candidates o = o.candidates
end

let finish ~budget ~cost_fn ~oracle ~t0 ~algorithm ~short_name ~label
    (partitioning, iterations) =
  let elapsed_seconds = Unix.gettimeofday () -. t0 in
  let status =
    if Vp_robust.Budget.exhausted budget then
      Timed_out
        { steps = Vp_robust.Budget.steps budget;
          elapsed_seconds = Vp_robust.Budget.elapsed_seconds budget }
    else Complete
  in
  Response.make ~partitioning ~cost:(cost_fn partitioning)
    ~stats:
      {
        cost_calls = Counted.calls oracle;
        candidates = Counted.candidates oracle;
        iterations;
        elapsed_seconds;
      }
    ~status ~algorithm ~short_name ?label ()

let c_algo_runs = Vp_observe.Stats.counter "algo.runs"

let timed_run ~name ~short_name body =
  let span_name = "algo:" ^ name in
  let exec (request : Request.t) =
    let go () =
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_algo_runs;
      let budget = Request.effective_budget request in
      let oracle = Counted.make () in
      let t0 = Unix.gettimeofday () in
      finish ~budget ~cost_fn:request.Request.cost ~oracle ~t0 ~algorithm:name
        ~short_name ~label:request.Request.label
        (body ~budget ~delta:(request.Request.delta ()) request.Request.workload
           oracle)
    in
    (* The span args are only built on the traced path; untraced runs take
       the one-branch fast path through [go] directly. *)
    if Vp_observe.Switch.trace_on () then
      Vp_observe.Trace.with_span ~name:span_name
        ~args:
          (("table", Table.name (Workload.table request.Request.workload))
          ::
          (match request.Request.label with
          | Some l -> [ ("label", l) ]
          | None -> []))
        go
    else go ()
  in
  { name; short_name; exec }
