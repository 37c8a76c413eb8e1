(** Traversal-rate equations over a decision graph (paper §4, Figure 8).

    The rate at which an outgoing edge is traversed is its branching
    probability times the rate at which its source node is entered:
    [r_e = p_e · v(src e)], [v(n) = Σ_{e→n} r_e]. Fixing [v(n₀) = 1] (the
    paper "assumes a particular value for one of the rates") makes the
    linear system uniquely solvable for irreducible graphs; everything is
    then {e relative} to visits of [n₀].

    The solver is generic over the coefficient field, so the same code
    yields the paper's symbolic rates (field = rational functions of the
    frequency symbols) and exact numeric rates (field = ℚ). Each field
    solves its own equations ({!field.balance}), and that one solve serves
    both throughput (below) and first-passage latency ({!Passage}, which
    hands it a renewal chain on the reachability graph):
    - over ℚ by sparse Gaussian elimination on row lists;
    - over ℚ(x) without leaving ℚ[x]. Each node's out-probabilities are
      written over one denominator, [p_e = w_e / D_n], and the system
      [D_n·y_n − Σ_{e→n} w_e·y_src(e) = 0] is solved by fraction-free
      (Bareiss) elimination. By the Markov chain tree theorem [y_n] is the
      sum over spanning in-trees rooted at [n] of [Π w_e], so
      [v(n) = D_n·y_n / C] and [r_e = w_e·y_src / C] share one
      denominator [C], which cancels from every measure. The paper's
      product forms (Figure 8's [f5·f8/((f4+f5)(f8+f9))]) come out this
      way, and a closed form needs one small gcd to reach lowest terms. *)

type 'f field = {
  zero : 'f;
  add : 'f -> 'f -> 'f;
  mul : 'f -> 'f -> 'f;
  div : 'f -> 'f -> 'f;
  balance : nodes:int -> root:int -> (int * int * 'f) array -> 'f array * 'f array;
      (** [balance ~nodes ~root arcs] solves the balance equations of a
          graph on nodes [0 … nodes-1] with one arc [(src, dst, p)] per
          edge: the visit rate of each node, [1] at [root], and the
          traversal rate of each arc.
          @raise Unsolvable if the system is singular *)
}

exception Unsolvable of string
(** The decision graph is empty (the run terminates), absorbing, not
    strongly connected, or otherwise yields a singular system. *)

val q_field : Tpan_mathkit.Q.t field
(** Exact rationals; balance by {!Tpan_mathkit.Sparse.Make.solve_rows}. *)

val ratfun_field : Tpan_symbolic.Ratfun.t field
(** Rational functions; balance by the fraction-free solve over ℚ[x]. *)

type ('t, 'p, 'f) result = {
  dg : ('t, 'p) Decision_graph.t;
  field : 'f field;
  normalized_at : int;  (** decision node with visit rate 1 *)
  visit_rate : int -> 'f;  (** per decision node *)
  edge_rate : ('t, 'p, 'f) rated_edge list;
  total_weight : 'f;
      (** [Σ_e r_e·d_e] — the paper's [Σ wᵢ]; the mean time per visit of the
          normalization node, so absolute rates are [r_e / total_weight] *)
}

and ('t, 'p, 'f) rated_edge = {
  edge : ('t, 'p) Decision_graph.dedge;
  rate : 'f;  (** relative traversal rate [r_e] *)
  weight : 'f;  (** relative time spent on the edge [w_e = r_e·d_e] *)
}

val solve :
  field:'f field ->
  embed_prob:('p -> 'f) ->
  embed_delay:('t -> 'f) ->
  ?normalize_at:int ->
  ('t, 'p) Decision_graph.t ->
  ('t, 'p, 'f) result
(** [normalize_at] defaults to the smallest decision-node index.
    @raise Unsolvable *)
