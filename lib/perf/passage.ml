module Sem = Tpan_core.Semantics

let mean_time_to_event ~(field : 'f Rates.field) ~embed_prob ~embed_delay
    (g : ('t, 'p) Sem.graph) ~start ~event : 'f option =
  let n = Array.length g.Sem.states in
  if start < 0 || start >= n then invalid_arg "Passage.mean_time_to_event: bad start";
  (* The expectation is finite iff every state [start] reaches before the
     event still has a path to an event edge ([can]). Every edge of the
     chains built here has positive probability, so a state without one
     is a positive-probability escape and the expectation diverges. *)
  let can = Array.make n false in
  (* reverse reachability from event edges *)
  let incoming = Array.make n [] in
  Array.iter
    (fun edges ->
      List.iter (fun (e : _ Sem.edge) -> incoming.(e.Sem.dst) <- e.Sem.src :: incoming.(e.Sem.dst)) edges)
    g.Sem.out;
  let queue = Queue.create () in
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : _ Sem.edge) ->
          if event e && not can.(e.Sem.src) then begin
            can.(e.Sem.src) <- true;
            Queue.add e.Sem.src queue
          end)
        edges)
    g.Sem.out;
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    List.iter
      (fun p ->
        if not can.(p) then begin
          can.(p) <- true;
          Queue.add p queue
        end)
      incoming.(s)
  done;
  (* forward reachability from start, stopping at event edges *)
  let reach = Array.make n false in
  let queue = Queue.create () in
  reach.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    List.iter
      (fun (e : _ Sem.edge) ->
        if (not (event e)) && not reach.(e.Sem.dst) then begin
          reach.(e.Sem.dst) <- true;
          Queue.add e.Sem.dst queue
        end)
      g.Sem.out.(s)
  done;
  let relevant = List.filter (fun s -> reach.(s)) (List.init n Fun.id) in
  if List.exists (fun s -> not can.(s)) relevant then None
  else begin
    (* The renewal chain (DESIGN §11): every event edge leads back to
       [start], every other edge keeps its destination. Each relevant
       state reaches an event edge and [start] reaches each relevant
       state, so the chain is irreducible; by the renewal-reward theorem
       the mean time between events, [Σ_e r_e·d_e / Σ_{e event} r_e],
       is the mean time from [start] to the first event. *)
    let idx = Array.make n (-1) in
    List.iteri (fun i s -> idx.(s) <- i) relevant;
    let edges = Array.of_list (List.concat_map (fun s -> g.Sem.out.(s)) relevant) in
    let arcs =
      Array.map
        (fun (e : _ Sem.edge) ->
          let dst = if event e then start else e.Sem.dst in
          (idx.(e.Sem.src), idx.(dst), embed_prob e.Sem.prob))
        edges
    in
    let _, r =
      field.Rates.balance ~nodes:(List.length relevant) ~root:idx.(start) arcs
    in
    let time = ref field.Rates.zero and events = ref field.Rates.zero in
    Array.iteri
      (fun i (e : _ Sem.edge) ->
        time := field.Rates.add !time (field.Rates.mul r.(i) (embed_delay e.Sem.delay));
        if event e then events := field.Rates.add !events r.(i))
      edges;
    Some (field.Rates.div !time !events)
  end

let concrete_latency g ?(start = 0) ~event () =
  mean_time_to_event ~field:Rates.q_field ~embed_prob:Fun.id ~embed_delay:Fun.id g ~start ~event

let symbolic_latency g ?(start = 0) ~event () =
  let embed_delay e = Tpan_symbolic.Ratfun.of_poly (Tpan_symbolic.Poly.of_linexpr e) in
  Option.map Tpan_symbolic.Ratfun.reduce
    (mean_time_to_event ~field:Rates.ratfun_field ~embed_prob:Fun.id ~embed_delay g ~start ~event)

let completion_event tpn name =
  let t = Measures.transition tpn name in
  fun (e : _ Sem.edge) -> List.mem t e.Sem.completed

let firing_event tpn name =
  let t = Measures.transition tpn name in
  fun (e : _ Sem.edge) -> List.mem t e.Sem.fired
