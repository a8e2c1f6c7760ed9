# Every falcc_cli command rejects a flag it does not read with status 1
# and `unknown flag --X for '<command>'`, before any file is opened (so
# the model and data paths need not exist): flags an older version
# accepted (`classify --compiled`, `--slo-us`) and a misspelled one
# (`--shard`, not `--shards`) alike, for plain commands and for
# subcommands. A numeric flag whose value is not a whole non-negative
# integer (sizes) or a finite number (doubles), and `--window 0`, fail
# the same way with `invalid value 'X' for --flag`. And every
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

function(expect_invalid_value flag value)
  execute_process(
    COMMAND ${FALCC_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${ARGN}: exit '${code}', want 1\n${err}")
  endif()
  string(FIND "${err}" "invalid value '${value}' for --${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${ARGN}: unexpected stderr:\n${err}")
  endif()
endfunction()

# A value that is not a number must not read as 0 (direct mode for
# --shards, lambda = 0 for --lambda), -1 must not wrap to SIZE_MAX (a
# log capacity with no power-of-two round-up), and a zero window cannot
# measure anything.
expect_invalid_value(shards abc
  classify --model missing.falcc --data missing.csv --shards abc)
expect_invalid_value(lambda x
  train --data missing.csv --sensitive race --out m.falcc --lambda x)
expect_invalid_value(log-capacity -1
  monitor --model missing.falcc --data missing.csv --log-capacity -1)
expect_invalid_value(window 0
  monitor --model missing.falcc --data missing.csv --window 0)
# Trailing characters, a fraction, a sign, an empty value, non-finite
# and overflowing numbers.
expect_invalid_value(k 3x
  train --data missing.csv --sensitive race --out m.falcc --k 3x)
expect_invalid_value(seed 1.5
  audit --data missing.csv --sensitive race --seed 1.5)
expect_invalid_value(chunk +8
  monitor --model missing.falcc --data missing.csv --chunk +8)
expect_invalid_value(drift-cluster ""
  monitor --model missing.falcc --data missing.csv --drift-cluster=)
expect_invalid_value(scale inf
  generate --dataset compas --out missing-dir/d.csv --scale inf)
expect_invalid_value(threshold nan
  monitor --model missing.falcc --data missing.csv --threshold nan)
expect_invalid_value(proxy-threshold 1e999
  inspect --data missing.csv --sensitive race --proxy-threshold 1e999)
expect_invalid_value(seed 99999999999999999999
  generate --dataset compas --out missing-dir/d.csv
  --seed 99999999999999999999)
expect_invalid_value(duration-s 0.1s
  replicate serve-feed --dir missing-dir --listen unix://missing-dir/s.sock
  --duration-s 0.1s)

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
