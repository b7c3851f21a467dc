(** The Mortar Stream Language (§2.2).

    A small text language — "a text-based version of the boxes and arrows
    query specification approach" (footnote 2) — for composing continuous
    queries. A program is a sequence of statements:

    {v
    name = op(source [, arguments]) [window ...] [mode ...] [on ...]
    v}

    where [source] is either [stream("sensor-name")] (a raw local stream at
    every participant) or the name of an earlier statement. Content
    operators ([select], [map]) define {e derived streams}: they run at
    each source before windowing. Aggregating operators define in-network
    queries. The paper's Wi-Fi tracker (§7.4) is three lines:

    {v
    loud   = select(stream("frames"), mac == "target" && rssi > -90)
    top3   = topk(loud, k=3, key="rssi") window time 1s 1s
    where  = trilat(top3) window time 1s 1s on [0]
    v}

    Clauses:
    - [window time <range> <slide>] with durations like [5s], [500ms];
      [window tuples <range> <slide>] with counts;
    - [mode syncless] (default) or [mode timestamp];
    - [striping roundrobin] (default) or [striping byindex] — the
      content-sensitive variant where the tree is a deterministic function
      of the window index (§4);
    - [on all] (default) or [on [n1, n2, ...]] — the paper's scoped
      queries: only listed nodes participate.

    Built-in operators: [sum], [count], [avg], [min], [max],
    [topk(k=, key=)], [union(cap=)], [entropy],
    [histogram(lo=, hi=, bins=)], [quantile(q=, lo=, hi= [, bins=])],
    [select(expr)], [map(f1=e1, ...)]; any other name resolves through
    {!Op.register}, with positional constant arguments. *)

type node_spec = All | Nodes of int list

type statement =
  | Derived_stream of {
      name : string;
      source : string;
      pre : Expr.transform list; (** Accumulated through the chain. *)
    }
  | Query_def of {
      name : string;
      source : string;
      pre : Expr.transform list;
      op : Op.spec;
      window : Window.t;
      mode : Query.mode;
      striping : Query.striping;
      nodes : node_spec;
    }

type program = statement list

exception Parse_error of { line : int; message : string }

val parse : string -> program
(** Parse and compile a program. Statement order is significant: sources
    must be defined (or be [stream(...)]) before use.
    @raise Parse_error with a line number on any lexical, syntactic, or
    semantic error (unknown operator, undefined source, bad clause). It
    is the only exception [parse] raises: an out-of-range integer, a
    window the {!Window} constructors reject, and a mistyped operator
    argument are parse errors at the statement's line too. *)

val query_metas :
  program ->
  root:int ->
  total_nodes:int ->
  ?degree:int ->
  ?track_provenance:bool ->
  unit ->
  (Query.meta * node_spec) list
(** Turn the program's query definitions into installable metadata, in
    order. Chained derived streams are folded into each query's [pre]
    list; queries sourcing another query subscribe to its output stream at
    the root. *)

val statement_name : statement -> string

val pp_statement : Format.formatter -> statement -> unit (* lint: allow D11 test-only, deletion deferred: test/test_edge_cases.ml "msl pp" *)
