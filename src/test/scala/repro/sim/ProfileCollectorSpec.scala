package repro.sim

import java.nio.file.Files
import repro.SparkSpec

class ProfileCollectorSpec extends SparkSpec {

  private def runProfiled(id: String): TaskProfile =
    ProfileCollector.profileRun(spark, id) {
      spark.range(0, 100000, 1, 8).selectExpr("id % 10 AS k", "id AS v")
        .groupBy("k").count().collect(): Unit
    }

  test("profiles a real shuffle query with at least two stages") {
    val p = runProfiled("p1")
    assert(p.stages.size >= 2, s"expected map+reduce stages, got ${p.stages.map(_.stageId)}")
  }

  test("task counts match the query's partitioning") {
    val p = runProfiled("p2")
    // Map side has 8 input partitions.
    assert(p.stages.exists(_.numTasks == 8))
  }

  test("task durations are positive and wall time dominates stage time") {
    val p = runProfiled("p3")
    assert(p.stages.forall(_.taskDurationsMs.forall(_ >= 1.0)))
    assert(p.wallMs > 0.0)
    assert(p.driverMs >= 0.0)
    assert(p.driverMs <= p.wallMs)
  }

  test("stage ordering information is captured (parents or job barriers)") {
    // Under AQE the reduce runs in a later job whose recorded parent is a
    // skipped duplicate of the map stage, so either explicit parent lineage
    // or the job-barrier ordering (which the simulator enforces) must exist.
    val p = runProfiled("p4")
    val hasParents   = p.stages.exists(_.parentIds.nonEmpty)
    val spansJobs    = p.stages.map(_.jobIndex).distinct.size >= 2
    assert(hasParents || spansJobs, s"no ordering info in ${p.stages}")
  }

  test("shuffle read bytes are recorded on the reduce stage") {
    val p = runProfiled("p5")
    assert(p.stages.exists(_.shuffleReadBytes > 0L))
  }

  test("profile save/load roundtrip") {
    val p    = runProfiled("p6")
    val path = Files.createTempDirectory("prof").resolve("p6.txt")
    p.save(path)
    val loaded = TaskProfile.load(path)
    assert(loaded == p)
  }

  test("detaching the collector stops collection") {
    val p = runProfiled("p7")
    val stagesBefore = p.stages.size
    // Run more work after profiling ended; profile must not change.
    spark.range(1000).count()
    assert(p.stages.size == stagesBefore)
  }
}
