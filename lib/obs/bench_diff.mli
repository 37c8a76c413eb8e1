(** Benchmark regression comparison.

    Reads two [BENCH_tpan.json] documents (a stored baseline and a fresh
    run), matches their per-figure wall times and GC words (major and
    minor heap — the latter gates allocation-heavy regressions in hot
    paths that never promote), and classifies every figure by ratio
    against two thresholds: warn at
    {!default_warn} (1.25x) and fail at {!default_fail} (2x). Baselines
    whose cost sits below a small noise floor are clamped before the
    ratio so trivial figures cannot flag on scheduler jitter.

    [tpan bench-diff] is a thin CLI over {!load_file},
    {!compare_figures} and the renderers; the bench harness writes the
    time series this gates ([BENCH_history.ndjson]). *)

type figure = { name : string; seconds : float; major_words : float; minor_words : float }
type verdict = Ok_v | Warn_v | Fail_v

type row = {
  name : string;
  base_seconds : float;
  cur_seconds : float;
  time_ratio : float;  (** current / baseline, floored denominators *)
  base_major_words : float;
  cur_major_words : float;
  major_words_ratio : float;
  base_minor_words : float;
  cur_minor_words : float;
  minor_words_ratio : float;
  verdict : verdict;  (** the worst of the three ratios' classes *)
}

type report = {
  rows : row list;  (** figures present in both documents, current order *)
  missing : string list;  (** in baseline, absent from current (≥ warn) *)
  added : string list;  (** new in current (informational) *)
  worst : verdict;
}

val default_warn : float
val default_fail : float

val figures_of_json : Jsonv.t -> (figure list, string) result
(** Extract the ["figures"] array of a parsed [BENCH_tpan.json]. *)

val load_file : string -> (figure list, string) result

val compare_figures :
  ?warn:float -> ?fail:float -> baseline:figure list -> current:figure list -> unit -> report

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Jsonv.t
