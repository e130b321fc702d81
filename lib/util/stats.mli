(** Descriptive statistics for experiment outputs.

    Everything the figure harness prints (CDFs, percentiles, means, load
    distributions) is computed here so experiments share one definition of
    each statistic. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val median : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics.  Raises [Invalid_argument] on an empty list. *)

val cdf : float list -> (float * float) list
(** [cdf xs] returns the empirical CDF as sorted [(value, fraction <= value)]
    points, one per distinct value. *)

val quantiles_of_cdf : (float * float) list -> float list -> float list
(** [quantiles_of_cdf c ps] inverts a CDF at each fraction in [ps]. *)

val moving_average : float list -> window:int -> float list
(** Trailing moving average with the given window (window >= 1). *)
