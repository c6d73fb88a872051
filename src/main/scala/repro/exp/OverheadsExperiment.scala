package repro.exp

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.core._

/** T9 — §5.6: training and scoring overheads of the AutoExecutor pipeline.
  *
  * Paper reference points: PPM fit ≈ 0.3 ms per training data point, RF
  * training ≈ 79 ms (103 queries), scikit-learn scoring ≈ 3.6 ms, in-JVM
  * (ONNX) inference ≈ 0.9 ms, plan featurization ≈ 10.3 ms, model load +
  * setup ≈ 88 + 47 ms, model files ≈ 0.8–1.1 MB.
  */
object OverheadsExperiment {

  final case class Result(
      ppmFitMsPerQuery: Map[PpmKind, Double],
      rfTrainMs: Map[PpmKind, Double],
      modelSizeBytes: Map[PpmKind, Long],
      scoreMs: Map[PpmKind, Double],
      modelLoadMs: Double,
      featurizationMs: Double,
      ruleFeaturizationMs: Option[Double],
      ruleScoringMs: Option[Double],
  )

  private def timeMs[A](reps: Int)(body: => A): Double = {
    body // warm-up
    val t0 = System.nanoTime()
    (0 until reps).foreach(_ => body)
    (System.nanoTime() - t0) / 1e6 / reps
  }

  /** Measure overheads on a built workload. If `spark` is given, also runs
    * one query through the extension-wired [[AutoExecutorRule]] and reports
    * the rule's own in-optimizer timings from the [[DecisionLog]].
    */
  def run(workload: Workload, spark: Option[SparkSession] = None): Result = {
    val examples = workload.queries.map(q => ParameterModel.TrainingExample(q.query.id, q.features, q.labelCurve))
    val curves   = examples.map(_.curve)

    val fitMs = PpmKind.all.map { kind =>
      kind -> timeMs(5) { curves.foreach(kind.fit) } / curves.size
    }.toMap

    val models = PpmKind.all.map(k => k -> ParameterModel.train(k, examples)).toMap
    val trainMs = PpmKind.all.map { kind =>
      kind -> timeMs(3) { ParameterModel.train(kind, examples) }
    }.toMap
    // Saved model files, one per kind (the paper's ONNX files).
    val files = models.map { case (k, m) =>
      val path = Files.createTempFile(s"pm-${k.name}", ".txt")
      m.save(path)
      k -> path
    }
    val sizes = files.map { case (k, path) => k -> Files.size(path) }

    val sampleFeatures = workload.queries.head.features
    val scoreMs = models.map { case (k, m) =>
      k -> timeMs(200) { m.predictPpm(sampleFeatures) }
    }

    // Cold model load from disk (the paper's ONNX load+setup analogue).
    val tmp = files(PpmKind.PowerLaw)
    AutoExecutorRule.invalidateCache()
    val (_, loadMs) = AutoExecutorRule.cachedModel(tmp)

    // Plan featurization needs a live plan; measured through the rule when a
    // session is available, else approximated on the stored features' query.
    val (featMs, ruleFeat, ruleScore) = spark match {
      case Some(s) =>
        val q    = workload.queries.head.query
        val plan = WorkloadRunner.withProfilingConfs(s)(s.sql(q.sql).queryExecution.optimizedPlan)
        val fMs  = timeMs(20) { PlanFeaturizer.featurize(plan) }
        DecisionLog.clear()
        s.conf.set(AutoExecutorRule.EnabledKey, "true")
        s.conf.set(AutoExecutorRule.ModelPathKey, tmp.toString)
        s.conf.set(AutoExecutorRule.StrategyKey, "slowdown:1.05")
        try s.sql(q.sql).queryExecution.optimizedPlan
        finally s.conf.set(AutoExecutorRule.EnabledKey, "false")
        val d = DecisionLog.last.getOrElse(throw new IllegalStateException(
          s"the rule made no decision: build the session with spark.sql.extensions=${classOf[AutoExecutorExtensions].getName}"))
        (fMs, Some(d.featurizationMs), Some(d.scoringMs))
      case None => (Double.NaN, None, None)
    }

    Result(fitMs, trainMs, sizes, scoreMs, loadMs, featMs, ruleFeat, ruleScore)
  }

  def report(r: Result): String = TextTable.render(
    "T9 — training and scoring overheads (§5.6)",
    Seq("metric", "paper", "measured"),
    Seq(
      Seq("PPM fit per query (AE_PL)", "~0.3 ms", f"${r.ppmFitMsPerQuery(PpmKind.PowerLaw)}%.3f ms"),
      Seq("PPM fit per query (AE_AL)", "~0.3 ms", f"${r.ppmFitMsPerQuery(PpmKind.Amdahl)}%.3f ms"),
      Seq("RF training, full workload (AE_PL)", "~79 ms", f"${r.rfTrainMs(PpmKind.PowerLaw)}%.1f ms"),
      Seq("RF training, full workload (AE_AL)", "~79 ms", f"${r.rfTrainMs(PpmKind.Amdahl)}%.1f ms"),
      Seq("model size (AE_PL)", "0.9-1.1 MB", f"${r.modelSizeBytes(PpmKind.PowerLaw) / 1e6}%.2f MB"),
      Seq("model size (AE_AL)", "0.8-1.0 MB", f"${r.modelSizeBytes(PpmKind.Amdahl) / 1e6}%.2f MB"),
      Seq("in-process inference (AE_PL)", "0.9 ms (ONNX)", f"${r.scoreMs(PpmKind.PowerLaw)}%.3f ms"),
      Seq("in-process inference (AE_AL)", "0.9 ms (ONNX)", f"${r.scoreMs(PpmKind.Amdahl)}%.3f ms"),
      Seq("model load + setup (cold)", "88.1 + 47.1 ms", f"${r.modelLoadMs}%.1f ms"),
      Seq("plan featurization", "10.3 ms", f"${r.featurizationMs}%.2f ms"),
      Seq("rule-measured featurization", "10.3 ms", r.ruleFeaturizationMs.map(v => f"$v%.2f ms").getOrElse("n/a")),
      Seq("rule-measured inference", "0.9 ms", r.ruleScoringMs.map(v => f"$v%.3f ms").getOrElse("n/a")),
    ),
  )
}
