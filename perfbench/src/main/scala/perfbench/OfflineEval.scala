package perfbench

import scala.collection.mutable
import repro.core.{ParameterModel, PlanFeaturizer, PpmKind}
import repro.exp.{AllocationExperiment, CrossValidation, PredictionExperiment, QueryData, Workload, WorkloadRunner}
import repro.ml.RandomForest
import repro.sim.{ClusterSimulator, SparklensEstimator}

/** `offline-eval`: the paper's evidence path (T3 plus T6) on the committed
  * SF100 fixture, with no Spark. One pass simulates every query's actual
  * and Sparklens curves, trains the 10×5-fold forests of both PPM kinds,
  * scores them (T3) and simulates the allocation policies (T6). Forest
  * training in `ml` dominates and `sim` comes second; the live path barely
  * touches either.
  */
object OfflineEval {
  val Name    = "offline-eval"
  val Reps    = 5
  val Folds   = 5
  val Repeats = 10
  /** DynamicAllocation runs per query in `AllocationExperiment.run`: Rule, DA, SA(48). */
  val AllocSimsPerQuery = 3

  /** The paper's outputs of one pass; they must repeat exactly at a fixed seed. */
  final case class Outputs(eNAePl: Double, eNAeAl: Double, aucSavingVsDa: Double, slowdownVsDa: Double,
                           forests: Int, treeNodes: Long)

  /** One pass's timings and outputs. The models are not kept, so passes do
    * not accumulate live heap.
    */
  final case class PassOut(wallS: Double, opMs: IndexedSeq[Double], outputs: Outputs)

  private def finiteCurve(c: IndexedSeq[(Int, Double)]): Boolean =
    c.size == WorkloadRunner.Grid.size && c.forall { case (_, t) => t.isFinite && t > 0 }

  /** Every query sits in exactly one test fold of the repeat. */
  private def checkRepeat(ids: IndexedSeq[String], r: Int, folds: IndexedSeq[CrossValidation.TrainedFold]): Option[String] =
    if (folds.size != Folds || folds.exists(_.repeat != r)) Some(s"repeat $r: ${folds.size} folds")
    else if (folds.flatMap(_.testIds).sorted != ids.sorted) Some(s"repeat $r does not test every query exactly once")
    else if (folds.exists(_.models.size != PpmKind.all.size)) Some(s"repeat $r lacks a PPM kind")
    else None

  /** Repeat `r` of the 10×5-fold `CrossValidation.trainFolds`: its split
    * comes from `seed + r`, so training the repeats one at a time gives the
    * same folds and models as one call over all ten.
    */
  def trainRepeat(w: Workload, seed: Long, r: Int): IndexedSeq[CrossValidation.TrainedFold] =
    CrossValidation.trainFolds(w, PpmKind.all, Folds, repeats = 1, seed = seed + r,
      rfParams = RandomForest.Params(seed = seed)).map(_.copy(repeat = r))

  private def mean(xs: Seq[Double]) = xs.sum / xs.size

  /** Mean test-fold E(n) over the grid for one series. */
  def eN(r: PredictionExperiment.Result, series: String): Double =
    mean(r.test.find(_.name == series).get.byN.map(_._2))

  /** [[trainRepeat]] step by step, so each forest fit and PPM fit gets a
    * span. It must train the same models.
    */
  private[perfbench] def tracedRepeat(w: Workload, seed: Long, r: Int, tracer: Tracer): IndexedSeq[CrossValidation.TrainedFold] = {
    val byId  = w.queries.map(q => q.query.id -> q).toMap
    val names = PlanFeaturizer.featureNames
    CrossValidation.splits(w.queries.map(_.query.id), Folds, 1, seed + r).map { case (_, f, trainIds, testIds) =>
      val examples = trainIds.map { id =>
        val q = byId(id)
        ParameterModel.TrainingExample(id, PlanFeaturizer.project(q.features, names),
          SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
      }
      // PPM label fits, timed on their own; ParameterModel.train repeats them.
      for (e <- examples; k <- PpmKind.all) tracer.span("core.ppm_fit")(k.fit(e.curve))
      val models = PpmKind.all.map { k =>
        k -> tracer.span("ml.forest_fit")(ParameterModel.train(k, examples, names, RandomForest.Params(seed = seed)))
      }.toMap
      CrossValidation.TrainedFold(r, f, trainIds, testIds, models, names)
    }
  }

  /** One evaluation pass. Its operations are: simulate every query's
    * curves, train each of the ten CV repeats, score (T3), allocate (T6).
    */
  def pass(fx: Fixture, seed: Long, tracer: Tracer, ops: Ops): Option[PassOut] = {
    val t0   = System.nanoTime()
    val opMs = mutable.ArrayBuffer.empty[Double]
    def timed[A](r: Option[(A, Double)]): Option[A] = r.map { case (a, ms) => opMs += ms; a }
    tracer.span("exp.pass") {
      val simulated = timed(ops("simulate") {
        tracer.span("exp.simulate") {
          fx.queries.map { q =>
            val tasks = q.profile.stages.map(_.numTasks.toLong).sum
            tracer.count("sim.simulations", WorkloadRunner.Grid.size * Reps)
            tracer.count("sim.sim_tasks", tasks * WorkloadRunner.Grid.size * Reps)
            QueryData(q.query, q.profile, q.features,
              actual = tracer.span("sim.actual_curve") {
                ClusterSimulator.actualCurve(q.profile, WorkloadRunner.Grid, reps = Reps, seed = seed)
              },
              sparklens = tracer.span("sim.sparklens")(SparklensEstimator.curve(q.profile, WorkloadRunner.Grid)))
          }
        }
      } { data => data.collectFirst { case d if !finiteCurve(d.actual) || !finiteCurve(d.sparklens) => s"${d.query.id}: non-finite or empty curve" } })
      simulated.flatMap { data =>
        val w   = Workload(fx.sfLabel, fx.sf, data)
        val ids = data.map(_.query.id)
        val repeats = tracer.span("exp.cv") {
          (0 until Repeats).map { r =>
            timed(ops(s"cv repeat $r") {
              if (tracer.enabled) tracedRepeat(w, seed, r, tracer) else trainRepeat(w, seed, r)
            }(checkRepeat(ids, r, _)))
          }
        }
        for {
          folds <- if (repeats.forall(_.isDefined)) Some(repeats.flatten.flatten) else None
          prediction <- timed(ops("prediction")(tracer.span("exp.predict")(PredictionExperiment.run(w, folds))) { r =>
            val values = (r.test ++ r.train).flatMap(_.byN.flatMap { case (_, m, sd) => Seq(m, sd) })
            if (values.forall(_.isFinite)) None else Some("non-finite E(n)")
          })
          alloc <- timed(ops("allocation") {
            tracer.span("exp.alloc") {
              val counts = AllocationExperiment.predictedCounts(w, folds)
              tracer.count("sim.simulations", AllocSimsPerQuery * data.size)
              tracer.count("sim.sim_tasks", AllocSimsPerQuery * data.map(_.profile.stages.map(_.numTasks.toLong).sum).sum)
              AllocationExperiment.run(w, counts, seed = seed)
            }
          } { r =>
            if (r.rows.map(_.queryId).sorted != ids.sorted) Some("allocation rows do not cover every query")
            else if (r.rows.exists(x => x.predictedN < 1 || x.predictedN > 48)) Some("predicted count outside [1,48]")
            else if (!r.aucSavingVsDa.isFinite || !r.slowdownVsDa.isFinite) Some("non-finite allocation result")
            else None
          })
        } yield PassOut((System.nanoTime() - t0) / 1e9, opMs.toIndexedSeq, Outputs(
          eN(prediction, "AE_PL"), eN(prediction, "AE_AL"), alloc.aucSavingVsDa, alloc.slowdownVsDa,
          forests = folds.map(_.models.size).sum,
          treeNodes = folds.flatMap(_.models.values).flatMap(_.forest.trees).map(_.nodeCount.toLong).sum))
      }
    }
  }

  /** Simulate every query once and train one repeat, so the JIT has
    * compiled the simulator and forest code before the first timed pass.
    */
  private def warmup(fx: Fixture, seed: Long): Unit = {
    val data = fx.queries.map { q =>
      QueryData(q.query, q.profile, q.features, IndexedSeq.empty, IndexedSeq.empty)
    }
    data.foreach(q => ClusterSimulator.actualCurve(q.profile, WorkloadRunner.Grid, reps = Reps, seed = seed))
    trainRepeat(Workload(fx.sfLabel, fx.sf, data), seed, 0)
  }

  def run(args: Args, jvmStart: Long, tracer: Tracer, ops: Ops, result: Result): Unit = {
    val (fx, setupSecs) = Main.repeatSetup(jvmStart) { i =>
      tracer.run(s"setup$i") {
        val fx = tracer.span("fixture.load")(Fixture.read(args.fixture))
        tracer.span("warmup")(warmup(fx, args.seed))
        fx
      }
    }(_ => ())
    val passes   = mutable.ArrayBuffer.empty[PassOut]
    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    var ok = true
    while (ok && (passes.isEmpty || System.nanoTime() < deadline)) {
      tracer.run(s"pass${passes.size}")(pass(fx, args.seed, tracer, ops)) match {
        case Some(o) => passes += o
        case None    => ok = false; result.correct = false
      }
    }
    require(passes.nonEmpty, "no evaluation pass completed")

    result.e2e("setup_s")   = Stats.median(setupSecs)
    result.e2e("pass_s")    = Stats.median(passes.map(_.wallS).toSeq)
    result.e2e("op_ms_p50") = Stats.median(passes.flatMap(_.opMs).toSeq)
    val first = passes.head
    result.note(f"$Name: SF100 fixture (sf=${fx.sf}%s, ${fx.queries.size} queries), ${Repeats}x$Folds-fold CV, both PPM kinds, seed ${args.seed}; ${passes.size} passes")
    result.note(s"fixture captured on: ${fx.machine.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    result.note(f"setup_s = ${result.e2e("setup_s")}%.3f s (set-ups: ${setupSecs.map(s => f"$s%.3f").mkString(", ")})")
    result.note(f"eval_s = ${result.e2e("pass_s")}%.3f s (pass_s: one evaluation pass over ${fx.queries.size} queries; passes: ${passes.map(p => f"${p.wallS}%.2f").mkString(", ")})")
    result.note(f"op_ms_p50 = ${result.e2e("op_ms_p50")}%.3f ms over ${first.opMs.size} operations per pass")
    result.note(s"outputs: ${first.outputs}")

    // Same seed, same models: every pass must reproduce the same outputs.
    val distinct = passes.map(_.outputs).distinct
    if (distinct.size > 1) {
      result.correct = false
      result.note(s"passes disagree on outputs: ${distinct.mkString("; ")}")
    }
    if (args.trace) {
      val t = first.outputs
      val n = passes.size.toDouble
      val ms = (name: String) => Stats.median(tracer.durations(name))
      val selfS = (name: String) => Stats.median(tracer.selfTimes(name)) / 1e3
      result.layer("core.ppm_fit_us_p50")     = ms("core.ppm_fit") * 1e3
      result.layer("ml.forest_fit_ms_p50")    = ms("ml.forest_fit")
      result.layer("ml.forests_trained")      = t.forests.toDouble
      result.layer("ml.tree_nodes")           = t.treeNodes.toDouble
      result.layer("sim.actual_curve_ms_p50") = ms("sim.actual_curve")
      result.layer("sim.simulations")         = tracer.counter("sim.simulations") / n
      result.layer("sim.sim_tasks")           = tracer.counter("sim.sim_tasks") / n
      result.layer("sim.sparklens_us_p50")    = ms("sim.sparklens") * 1e3
      result.layer("exp.cv_s")                = selfS("exp.cv")
      result.layer("exp.predict_s")           = selfS("exp.predict")
      result.layer("exp.alloc_s")             = selfS("exp.alloc")
      result.layer("exp.e_n_ae_pl")           = t.eNAePl
      result.layer("exp.e_n_ae_al")           = t.eNAeAl
      result.layer("exp.auc_saving_vs_da")    = t.aucSavingVsDa
      result.layer("exp.slowdown_vs_da")      = t.slowdownVsDa
      result.layer("jvm.heap_live_mb")        = Main.heapLiveMb()
    }
  }
}
