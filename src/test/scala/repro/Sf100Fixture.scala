package repro

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import repro.sim.{StageProfile, TaskProfile}

/** The committed SF100 capture, `perfbench/fixture/sf100.txt`: for each of
  * the 103 queries its plan features and its single profiling run. The
  * `stage` lines are read here on their own, not through
  * [[TaskProfile.load]], so the profile format's tests have an independent
  * reference.
  */
object Sf100Fixture {
  final case class Entry(id: String, features: Array[Double], profile: TaskProfile)

  lazy val entries: IndexedSeq[Entry] = {
    val lines = Files.readAllLines(Paths.get("perfbench", "fixture", "sf100.txt")).asScala.map(_.split(' ')).toIndexedSeq
    lines.indices.filter(lines(_)(0) == "query").map { i =>
      val q = lines(i)
      require(lines(i + 1)(0) == "feat", s"query ${q(1)} has no feat line")
      val stages = lines.slice(i + 2, i + 2 + q(4).toInt).map { s =>
        require(s(0) == "stage", s"query ${q(1)}: expected a stage line, got ${s(0)}")
        StageProfile(
          stageId = s(1).toInt,
          jobIndex = s(2).toInt,
          parentIds = if (s(3) == "-") Nil else s(3).split(',').map(_.toInt).toSeq,
          taskDurationsMs = s(6).split(',').map(_.toDouble).toIndexedSeq,
          shuffleReadBytes = s(4).toLong,
          inputBytes = s(5).toLong,
        )
      }
      Entry(q(1), lines(i + 1)(1).split(',').map(_.toDouble), TaskProfile(q(1), stages, q(2).toDouble, q(3).toDouble))
    }
  }
}
