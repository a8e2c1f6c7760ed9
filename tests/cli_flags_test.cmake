# Every falcc_cli command rejects a flag it does not read with status 1
# and `unknown flag --X for '<command>'`, before any file is opened (so
# the model and data paths need not exist): flags an older version
# accepted (`classify --compiled`, `--slo-us`) and a misspelled one
# (`--shard`, not `--shards`) alike, for plain commands and for
# subcommands. And every
# command accepts each flag it documents: given all of them, it fails
# only on the missing input files.
#
#   cmake -DFALCC_CLI=path/to/falcc_cli -P cli_flags_test.cmake
function(expect_unknown_flag flag command)
  execute_process(
    COMMAND ${FALCC_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${ARGN}: exit '${code}', want 1\n${err}")
  endif()
  if(NOT err MATCHES "unknown flag --${flag} for '${command}'")
    message(FATAL_ERROR "${ARGN}: unexpected stderr:\n${err}")
  endif()
endfunction()

# Removed: the compiled/interpreted switch and the latency target that
# cut shard batches are gone.
expect_unknown_flag(compiled classify
  classify --model missing.falcc --data missing.csv --compiled off)
expect_unknown_flag(slo-us classify
  classify --model missing.falcc --data missing.csv --shards 2 --slo-us 1000)
# Misspelled.
expect_unknown_flag(shard classify
  classify --model missing.falcc --data missing.csv --shard 2)
expect_unknown_flag(bogus-flag train
  train --data missing.csv --sensitive race --out m.falcc --bogus-flag=1)
expect_unknown_flag(other "snapshot verify"
  snapshot verify --model missing.falcc --other missing.falcc)
expect_unknown_flag(dri "replicate status"
  replicate status --dir missing --dri missing)

function(expect_flags_accepted)
  execute_process(
    COMMAND ${FALCC_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(err MATCHES "unknown flag")
    message(FATAL_ERROR "${ARGN}: a documented flag was rejected:\n${err}")
  endif()
endfunction()

expect_flags_accepted(generate --dataset no-such-dataset
  --out missing-dir/d.csv --scale 1 --seed 1)
expect_flags_accepted(train --data missing.csv --sensitive race
  --out missing-dir/m.falcc --label y --metric dp --lambda 0.5 --proxy none
  --k 0 --seed 1)
expect_flags_accepted(predict --model missing.falcc --data missing.csv
  --label y)
expect_flags_accepted(classify --model missing.falcc --data missing.csv
  --label y --metrics-out missing-dir/m.json --shards 2
  --follow missing.falcc)
expect_flags_accepted(monitor --model missing.falcc --data missing.csv
  --label y --chunk 256 --poll-every 1 --repeat 1 --window 512
  --threshold 1 --slack 0.05 --min-samples 100 --drift-cluster 0
  --drift-start 0 --metrics-out missing-dir/m.json --delta-dir missing-dir
  --listen unix://missing-dir/s.sock --checkpoint-every 8
  --log-capacity 1024)
expect_flags_accepted(audit --data missing.csv --sensitive race --label y
  --metric dp --seed 1)
expect_flags_accepted(inspect --data missing.csv --sensitive race --label y
  --proxy-threshold 0.5)
expect_flags_accepted(snapshot inspect --model missing.falcc)
expect_flags_accepted(snapshot verify --model missing.falcc)
expect_flags_accepted(snapshot diff --model missing.falcc
  --other missing.falcc)
expect_flags_accepted(replicate status --dir missing-dir)
# An endpoint that is not tcp:// or unix:// fails before anything listens.
expect_flags_accepted(replicate serve-feed --dir missing-dir
  --listen not-an-endpoint --duration-s 0.1 --heartbeat-s 0.2)
