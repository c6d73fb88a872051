package perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import repro.core.{AutoExecutorRule, Decision, DecisionLog, ParameterModel, PlanFeaturizer, PpmKind}
import repro.exp.WorkloadRunner
import repro.ml.RandomForest
import repro.sim.SparklensEstimator
import repro.tpcds.{Queries, TpcdsLite}

/** `live-plan`: the paper's live path (§4.4). One operation plans one query
  * (`spark.sql(q).queryExecution.optimizedPlan`) in a session built with
  * `spark.sql.extensions=repro.core.AutoExecutorExtensions` and the rule on,
  * so featurize, score and select run on every query while training and
  * simulation never do. Rounds cover all 103 queries in a seeded order.
  */
object LivePlan {
  val Name     = "live-plan"
  val Sf       = 0.1
  val Strategy = "slowdown:1.05"
  /** Rule-on rounds at the end of each set-up. Planning latency settles by
    * about the third round a fresh JVM plans; the measured session is the
    * second set-up's, so two rounds precede it.
    */
  val WarmupRounds = 1

  final case class State(spark: SparkSession, modelPath: Path, model: ParameterModel)

  private def setup(args: Args, tracer: Tracer, i: Int): State = tracer.run(s"setup$i") {
    tracer.span("setup") {
      val spark = tracer.span("spark.session") {
        Session.start(args.work, Map("spark.sql.extensions" -> "repro.core.AutoExecutorExtensions"))
      }
      tracer.span("tpcds.materialize")(TpcdsLite.materialize(spark, Sf, args.work.resolve(s"data$i")))
      val fixture = tracer.span("fixture.load")(Fixture.read(args.fixture))
      val examples = fixture.queries.map { q =>
        val curve = tracer.span("sim.sparklens")(SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
        ParameterModel.TrainingExample(q.query.id, q.features, curve)
      }
      val model = tracer.span("ml.forest_fit") {
        ParameterModel.train(PpmKind.PowerLaw, examples, rfParams = RandomForest.Params(seed = args.seed))
      }
      val modelPath = args.work.resolve(s"model$i.bin")
      model.save(modelPath)
      AutoExecutorRule.invalidateCache()
      spark.conf.set(AutoExecutorRule.ModelPathKey, modelPath.toString)
      spark.conf.set(AutoExecutorRule.StrategyKey, Strategy)
      spark.conf.set(AutoExecutorRule.EnabledKey, "true")
      tracer.span("warmup") {
        (0 until WarmupRounds).foreach(_ => Queries.all.foreach(q => plan(spark, q.sql)))
      }
      State(spark, modelPath, model)
    }
  }

  private def plan(spark: SparkSession, sql: String): LogicalPlan = spark.sql(sql).queryExecution.optimizedPlan

  private def checkDecisions(ds: IndexedSeq[Decision]): Option[String] =
    if (ds.isEmpty) Some("rule recorded no decision")
    else ds.collectFirst {
      case d if d.requestedExecutors < 1 || d.requestedExecutors > 48 => s"requested ${d.requestedExecutors} executors"
      case d if !d.ppm.params.forall(_.isFinite) => s"non-finite PPM ${d.ppm.params.mkString(",")}"
    }

  def run(args: Args, jvmStart: Long, tracer: Tracer, ops: Ops, result: Result): Unit = {
    val (st, setupSecs) = Main.repeatSetup(jvmStart)(i => setup(args, tracer, i))(s => Session.stop(s.spark))
    val spark    = st.spark
    val strategy = AutoExecutorRule.parseStrategy(Strategy)
    val queries  = Queries.all
    val rng      = new Random(args.seed)
    val orderRng = new Random(args.seed + 1)
    def setRule(on: Boolean): Unit = spark.conf.set(AutoExecutorRule.EnabledKey, on.toString)

    val roundMs    = mutable.ArrayBuffer.empty[Double]
    val latMs      = mutable.ArrayBuffer.empty[Double]
    val mismatched = mutable.Set.empty[String]
    var decisions  = 0L
    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    val t0 = System.nanoTime()
    var round = 0
    while (round == 0 || System.nanoTime() < deadline) {
      var sum = 0.0
      rng.shuffle(queries).foreach { q =>
        def ruleOn(): Unit = {
          DecisionLog.clear()
          ops(q.id) {
            val p = tracer.span("live.plan")(plan(spark, q.sql))
            (p, DecisionLog.all)
          } { case (_, ds) => checkDecisions(ds) } foreach { case ((finalPlan, ds), ms) =>
            latMs += ms; sum += ms; decisions += ds.size
            if (args.trace) {
              // The rule's three steps, recomputed outside on the final plan.
              val features = tracer.span("core.featurize")(PlanFeaturizer.featurize(finalPlan))
              val ppm      = tracer.span("core.score")(st.model.predictPpm(features))
              val n        = tracer.span("core.select")(strategy.select(ppm.curve(1 to 48)))
              if (!ds.lastOption.exists(d => d.requestedExecutors == n && d.features.sameElements(features)))
                mismatched += q.id
            }
          }
        }
        // Rule off: the Catalyst floor the rule-on latency cannot go below.
        def ruleOff(): Unit = {
          setRule(false)
          tracer.span("catalyst.plan")(plan(spark, q.sql))
          setRule(true)
        }
        if (!args.trace) ruleOn()
        else tracer.run(s"r$round/${q.id}") {
          // A seeded order, so neither variant always plans first.
          if (orderRng.nextBoolean()) { ruleOff(); ruleOn() } else { ruleOn(); ruleOff() }
        }
      }
      roundMs += sum
      round += 1
    }
    val measuredS = (System.nanoTime() - t0) / 1e9

    result.e2e("setup_s")   = Stats.median(setupSecs)
    result.e2e("pass_s")    = Stats.median(roundMs.toSeq) / 1e3
    result.e2e("op_ms_p50") = Stats.median(latMs.toSeq)
    val tail = Seq(0.99, 0.95, 0.9).iterator.map(q => q -> Stats.tail(latMs.toSeq, q)).collectFirst { case (q, Some(v)) => (q, v) }
    result.note(f"$Name: sf=$Sf%s (SF100), ${queries.size} queries, $round rounds, ${latMs.size} rule-on plans, strategy $Strategy, seed ${args.seed}")
    result.note(f"setup_s = ${result.e2e("setup_s")}%.3f s (set-ups: ${setupSecs.map(s => f"$s%.2f").mkString(", ")})")
    result.note(f"plan_ms_p50 = ${result.e2e("op_ms_p50")}%.3f ms (op_ms_p50)")
    result.note(tail.fold(s"plan tail not reported: fewer than 10 of ${latMs.size} samples beyond p90") { case (q, v) =>
      f"plan_ms_p${(q * 100).round} = $v%.3f ms (highest percentile with 10 of ${latMs.size} samples beyond it)"
    })
    result.note(f"plans_per_s = ${ops.attempted / measuredS}%.2f 1/s (single closed-loop client, checks included)")
    result.note(f"round_s = ${result.e2e("pass_s")}%.3f s (pass_s: one round over ${queries.size} queries)")

    if (args.trace) {
      // Cold model load, as on the first query of a new Spark application.
      (0 until 5).foreach { _ =>
        AutoExecutorRule.invalidateCache()
        tracer.span("core.model_load")(AutoExecutorRule.cachedModel(st.modelPath))
      }
      val us = (name: String) => Stats.median(tracer.durations(name)) * 1e3
      result.layer("core.decisions_per_query") = decisions.toDouble / latMs.size
      result.layer("core.featurize_us_p50")    = us("core.featurize")
      result.layer("core.score_us_p50")        = us("core.score")
      result.layer("core.select_us_p50")       = us("core.select")
      result.layer("core.decision_mismatch")   = mismatched.size.toDouble
      result.layer("core.model_load_ms")       = Stats.median(tracer.durations("core.model_load"))
      result.layer("core.model_bytes")         = Files.size(st.modelPath).toDouble
      result.layer("catalyst.plan_ms_p50")     = Stats.median(tracer.durations("catalyst.plan"))
      result.layer("ml.forest_fit_ms_p50")     = Stats.median(tracer.durations("ml.forest_fit"))
      result.layer("ml.forests_trained")       = tracer.durations("ml.forest_fit").size.toDouble
      result.layer("ml.tree_nodes")            = st.model.forest.trees.map(_.nodeCount).sum.toDouble
      result.layer("sim.sparklens_us_p50")     = us("sim.sparklens")
      result.layer("tpcds.materialize_s")      = Stats.median(tracer.durations("tpcds.materialize")) / 1e3
      result.layer("jvm.heap_live_mb")         = Main.heapLiveMb()
      result.note(f"traced: decisions_per_query=${result.layer("core.decisions_per_query")}%.3f, mismatched queries=${mismatched.size}, rule-off plan p50=${result.layer("catalyst.plan_ms_p50")}%.3f ms")
    }
    Session.stop(spark)
  }
}
