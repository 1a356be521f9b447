# Runs `CLI HW --config CONFIG --dump-config` and passes only when it exits
# with status 1 and its stderr names KEY in quotes.
#
#   cmake -DCLI=<snnmap_cli> -DCONFIG=<file.yaml> -DKEY=<section.key>
#         -P expect_config_rejected.cmake
execute_process(COMMAND "${CLI}" HW --config "${CONFIG}" --dump-config
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}':\n${err}")
endif()
string(FIND "${err}" "'${KEY}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${KEY}':\n${err}")
endif()
