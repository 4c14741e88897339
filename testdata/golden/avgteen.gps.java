// Generated by the Green-Marl → Pregel compiler from procedure "avg_teen_cnt".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    public void write(DataOutput out) throws IOException {
        
    }
    public void readFields(DataInput in) throws IOException {
        
    }
}

class AvgTeenCntVertexValue implements Writable {
    long age;
    long teen_cnt;
    long _t1;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeLong(age);
        out.writeLong(teen_cnt);
        out.writeLong(_t1);
    }
    public void readFields(DataInput in) throws IOException {
        age = in.readLong();
        teen_cnt = in.readLong();
        _t1 = in.readLong();
    }
}

class AvgTeenCntMaster extends Master {
    int _state = 0;
    long K;
    long S;
    long C;
    double avg;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // master block
                    S = 0L;
                    C = 0L;
                    _state = 1; break;
                }
                case 1: { // vertex-parallel state "state0"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = 3; break;
                }
                case 3: { // vertex-parallel state "state2_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(3));
                    getGlobalObjectMap().put("K", new LongOverwrite(K));
                    _state = 4; return; // run vertex.compute this superstep
                }
                case 4: { // master block
                    _state = 5; break;
                }
                case 5: { // master block
                    _state = 6; break;
                }
                case 6: { // master block
                    if (getGlobalObjectMap().hasUpdates("S_+=")) {
                        S += getGlobalObjectMap().get("S_+=").getValue();
                    }
                    if (getGlobalObjectMap().hasUpdates("C_+=")) {
                        C += getGlobalObjectMap().get("C_+=").getValue();
                    }
                    _state = 7; break;
                }
                case 7: { // master block
                    avg = ((C == 0L) ? 0.0 : ((1.0 * S) / C));
                    setResult(avg);
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

class AvgTeenCntVertex extends Vertex<AvgTeenCntVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 1: { // state0
                getValue()._t1 = 0L;
                if (((getValue().age >= 13L) && (getValue().age <= 19L))) {
                    for (int e = 0; e < getNeighborsCount(); e++) {
                        Message m = new Message();
                        sendMessage(getNeighborId(e), m);
                    }
                }
                break;
            }
            case 3: { // state2_recv
                long K = ((LongOverwrite) getGlobalObjectMap().get("K")).getValue();
                for (Message m : messages) {
                    getValue()._t1 += 1L;
                }
                getValue().teen_cnt = getValue()._t1;
                if ((getValue().age > K)) {
                    getGlobalObjectMap().put("S_+=", new Reduce(getValue().teen_cnt));
                    getGlobalObjectMap().put("C_+=", new Reduce(1L));
                }
                break;
            }
        }
    }
}
