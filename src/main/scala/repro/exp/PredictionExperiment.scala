package repro.exp

import repro.core.{ParameterModel, PlanFeaturizer, PpmKind}
import repro.exp.CrossValidation.TrainedFold
import repro.sim.SparklensEstimator

/** T3 — Figures 4/9 + §5.2: prediction accuracy E(n) of AE_PL, AE_AL and
  * Sparklens on the 10-repeated 5-fold cross-validation, for both the
  * training (fit) and testing (prediction) datasets.
  */
object PredictionExperiment {

  /** E(n) mean ± std across folds, for one series at each grid n. */
  final case class Series(name: String, byN: IndexedSeq[(Int, Double, Double)])

  final case class Result(
      train: IndexedSeq[Series],
      test: IndexedSeq[Series],
      meanAbsGapToSparklens: Map[PpmKind, Double],
  )

  def run(workload: Workload, folds: IndexedSeq[TrainedFold], grid: IndexedSeq[Int] = WorkloadRunner.Grid): Result = {
    val byId   = workload.queries.map(q => q.query.id -> q).toMap
    val actual = byId.map { case (id, q) => id -> q.actual.toMap }

    // Curves by fold, then query id. Each (fold, kind, query) is scored once
    // over the whole grid; the E(n) sums below only look curves up.
    type Curves = IndexedSeq[Map[String, Map[Int, Double]]]
    def modelCurves(kind: PpmKind): Curves =
      folds.map(f => (f.trainIds ++ f.testIds).map(id => id -> f.predict(kind, byId(id), grid).toMap).toMap)
    val sparklens = byId.map { case (id, q) => id -> q.sparklens.toMap }
    val sCurves: Curves = folds.map(_ => sparklens)
    val plCurves = modelCurves(PpmKind.PowerLaw)
    val alCurves = modelCurves(PpmKind.Amdahl)

    def series(name: String, ids: TrainedFold => Seq[String], curves: Curves): Series =
      Series(name, grid.map { n =>
        val vals = folds.zip(curves).map { case (f, c) => Metrics.eN(ids(f).map(id => (c(id)(n), actual(id)(n)))) }
        (n, Metrics.mean(vals), Metrics.stddev(vals))
      })

    val test = IndexedSeq(
      series("S", _.testIds, sCurves),
      series("AE_PL", _.testIds, plCurves),
      series("AE_AL", _.testIds, alCurves),
    )
    val train = IndexedSeq(
      series("S", _.trainIds, sCurves),
      series("AE_PL", _.trainIds, plCurves),
      series("AE_AL", _.trainIds, alCurves),
    )
    val sMean = test.head.byN.map { case (n, m, _) => n -> m }.toMap
    val gaps = Seq[PpmKind](PpmKind.PowerLaw, PpmKind.Amdahl).map { kind =>
      val mSeries = test.find(_.name == kind.name).get
      kind -> Metrics.mean(mSeries.byN.map { case (n, m, _) => math.abs(m - sMean(n)) })
    }.toMap
    Result(train, test, gaps)
  }

  def report(r: Result): String = {
    def table(title: String, ss: Seq[Series]): String = TextTable.render(
      title,
      "series" +: ss.head.byN.map { case (n, _, _) => s"E($n)" },
      ss.map(s => s.name +: s.byN.map { case (_, m, sd) => f"$m%.3f±$sd%.3f" }),
    )
    table("T3a — E(n), training datasets (fit), 10x5-fold CV (Figure 9a)", r.train) +
      table("T3b — E(n), testing datasets (prediction), 10x5-fold CV (Figure 9b)", r.test) +
      TextTable.render(
        "T3c — mean |E(n) - E_Sparklens(n)| on testing datasets (§5.2)",
        Seq("model", "paper", "measured"),
        Seq(
          Seq("AE_PL", "0.079", TextTable.num3(r.meanAbsGapToSparklens(PpmKind.PowerLaw))),
          Seq("AE_AL", "0.094", TextTable.num3(r.meanAbsGapToSparklens(PpmKind.Amdahl))),
        ),
      )
  }
}

/** T7 — Figure 14 + §5.5: generalization across input-data sizes. Models are
  * trained on every query of one scale factor and tested on the other;
  * Sparklens reference estimates come from profiling runs at each SF.
  */
object CrossSfExperiment {

  final case class Result(testLabel: String, trainLabel: String, series: IndexedSeq[(String, IndexedSeq[(Int, Double)])])

  def run(train: Workload, test: Workload, grid: IndexedSeq[Int] = WorkloadRunner.Grid): Result = {
    val examples = train.queries.map { q =>
      ParameterModel.TrainingExample(q.query.id, q.features, SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
    }
    val models = PpmKind.all.map(k => k -> ParameterModel.train(k, examples)).toMap
    val trainById = train.queries.map(q => q.query.id -> q).toMap

    def eSeries(name: String, curveOf: QueryData => Map[Int, Double]): (String, IndexedSeq[(Int, Double)]) =
      name -> grid.map { n =>
        n -> Metrics.eN(test.queries.map(q => (curveOf(q)(n), q.actual.toMap.apply(n))))
      }

    val series = IndexedSeq(
      // Sparklens from the *test* SF profile (needs a run at that SF)...
      eSeries(s"S_${test.sfLabel}", q => q.sparklens.toMap),
      // ...and from the *training* SF profile of the same query (the paper's
      // observation: Sparklens cannot account for the data-size change).
      eSeries(s"S_${train.sfLabel}", q => trainById(q.query.id).sparklens.toMap),
      eSeries("AE_PL", q => models(PpmKind.PowerLaw).predictPpm(q.features).curve(grid).toMap),
      eSeries("AE_AL", q => models(PpmKind.Amdahl).predictPpm(q.features).curve(grid).toMap),
    )
    Result(test.sfLabel, train.sfLabel, series)
  }

  def report(r: Result): String = TextTable.render(
    s"T7 — E(n), testing ${r.testLabel}, models trained on ${r.trainLabel} (Figure 14)",
    "series" +: r.series.head._2.map { case (n, _) => s"E($n)" },
    r.series.map { case (name, byN) => name +: byN.map { case (_, e) => TextTable.num3(e) } },
  )
}
