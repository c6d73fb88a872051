package perfbench

/** Percentiles over timing samples. */
object Stats {

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile `q` (0 < q < 1), but only when at least
    * `minBeyond` samples lie strictly beyond the rank it picks: a tail
    * estimate from fewer samples than that is not reported.
    */
  def tail(xs: Seq[Double], q: Double, minBeyond: Int = 10): Option[Double] = {
    require(q > 0 && q < 1, s"percentile must lie in (0,1), got $q")
    val n    = xs.length
    val rank = math.ceil(q * n).toInt
    if (n == 0 || n - rank < minBeyond) None else Some(xs.sorted.apply(rank - 1))
  }
}
